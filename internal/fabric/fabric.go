package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/dataplane"
	"camus/internal/faults"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// Config assembles a live two-tier fabric over loopback UDP.
type Config struct {
	Spec   *spec.Spec
	Leaves int
	// Spines is the number of redundant spine switches (default 1). All
	// spines run the same covering program; spines beyond the first are
	// failover paths.
	Spines int
	// LinkFaults is the chaos plan template for every inter-switch link;
	// each link derives its own decision-stream seeds from it. The zero
	// plan leaves the links clean.
	LinkFaults faults.Plan
	// Heartbeat is every switch's idle egress heartbeat (default 10ms) —
	// what lets a link relay detect tail loss promptly.
	Heartbeat time.Duration
	// HealthInterval is the leaf→spine liveness heartbeat period
	// (default 10ms); HealthTimeout is how much silence kills a link
	// (default 8× HealthInterval).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// RequestTimeout is the link relays' initial retransmission timeout
	// (default 15ms).
	RequestTimeout time.Duration
	// Workers is each switch's shard-lane count (default 1).
	Workers  int
	Compiler compiler.Options
	Cover    CoverOptions
	Policy   controlplane.UpdatePolicy
	// VerifyCovers proves BDD containment of every leaf program in its
	// covers before each epoch touches a device.
	VerifyCovers bool
	// WrapDevice, when non-nil, wraps each member's install interface —
	// the chaos hook for mid-epoch device failures (faults.FlakyDevice).
	WrapDevice func(name string, dev controlplane.Device) controlplane.Device
	Telemetry  *telemetry.Telemetry
}

// Fabric is a running two-tier Camus topology: per leaf an up-plane
// switch (global cover → uplink relay → active spine) and a down-plane
// switch (full subscriber rules → host ports), plus redundant spines
// (per-leaf covers → downlink relays → leaf down planes). Every
// inter-switch hop is a MoldUDP64 stream terminated by a gap-recovering
// Relay, so loss is repaired per hop; leaf liveness flows to each spine
// over heartbeat channels, a dead link degrades the spine (it stops
// forwarding toward the silent leaf) and reroutes every leaf whose
// active spine lost full connectivity onto a redundant one.
type Fabric struct {
	cfg Config
	ctl *Controller

	downs  []*dataplane.Switch
	ups    []*dataplane.Switch
	spines []*dataplane.Switch

	upRelays   []*Relay   // leaf j's uplink, targeted at its active spine
	downRelays [][]*Relay // [spine][leaf]
	// downSubs are the spine egress subscriptions feeding the downlink
	// relays, [spine][leaf]; onLinkDown closes a subscription to stop
	// the spine forwarding into a dead link.
	downSubs [][]*dataplane.Subscription

	monitors []*healthMonitor
	hbs      [][]*heartbeater // [leaf][spine]

	linkMu   sync.Mutex
	linkDead [][]bool // [leaf][spine]
	active   []int    // active spine per leaf

	linkUpG      [][]*telemetry.Gauge
	linkFailures *telemetry.Counter
	reroutes     *telemetry.Counter

	started bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errMu   sync.Mutex
	runErr  error

	closeOnce sync.Once
	closeErr  error
}

// New builds the whole fabric — switches, link relays, health channels,
// epoch controller — without starting any traffic. Call Start, then
// Apply.
func New(cfg Config) (*Fabric, error) {
	if cfg.Spec == nil {
		return nil, errors.New("fabric: Config.Spec is required")
	}
	if cfg.Leaves < 1 {
		return nil, fmt.Errorf("fabric: need at least one leaf, got %d", cfg.Leaves)
	}
	if cfg.Spines == 0 {
		cfg.Spines = 1
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 10 * time.Millisecond
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 10 * time.Millisecond
	}
	if cfg.HealthTimeout == 0 {
		cfg.HealthTimeout = 8 * cfg.HealthInterval
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 15 * time.Millisecond
	}

	ctl, err := NewController(ControllerConfig{
		Spec:         cfg.Spec,
		Leaves:       cfg.Leaves,
		UplinkPort:   0,
		Compiler:     cfg.Compiler,
		Cover:        cfg.Cover,
		Policy:       cfg.Policy,
		VerifyCovers: cfg.VerifyCovers,
		Telemetry:    cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	f := &Fabric{cfg: cfg, ctl: ctl, active: make([]int, cfg.Leaves)}
	if reg := cfg.Telemetry.Reg(); reg != nil {
		f.linkFailures = reg.Counter("camus_fabric_link_failures_total")
		f.reroutes = reg.Counter("camus_fabric_reroutes_total")
	}
	if err := f.build(); err != nil {
		f.destroy()
		return nil, err
	}
	return f, nil
}

func (f *Fabric) listen(session string) (*dataplane.Switch, error) {
	return dataplane.Listen(dataplane.Config{
		Spec:      f.cfg.Spec,
		Options:   f.cfg.Compiler,
		Session:   session,
		Heartbeat: f.cfg.Heartbeat,
		Workers:   f.cfg.Workers,
		Telemetry: f.cfg.Telemetry,
	})
}

func (f *Fabric) member(name string, sw *dataplane.Switch) Member {
	var dev controlplane.Device = sw.Device()
	if f.cfg.WrapDevice != nil {
		dev = f.cfg.WrapDevice(name, dev)
	}
	return Member{Name: name, Dev: dev}
}

func (f *Fabric) build() error {
	cfg := f.cfg
	// A distinct fault seed pair per link keeps every link's chaos
	// decision stream independent yet replayable from the one plan.
	seed := cfg.LinkFaults.Seed
	nextPlan := func() faults.Plan {
		p := cfg.LinkFaults
		p.Seed = seed
		seed += 16
		return p
	}

	for s := 0; s < cfg.Spines; s++ {
		sw, err := f.listen(fmt.Sprintf("SP%d", s))
		if err != nil {
			return err
		}
		f.spines = append(f.spines, sw)
	}
	for j := 0; j < cfg.Leaves; j++ {
		down, err := f.listen(fmt.Sprintf("LF%dD", j))
		if err != nil {
			return err
		}
		f.downs = append(f.downs, down)
		up, err := f.listen(fmt.Sprintf("LF%dU", j))
		if err != nil {
			return err
		}
		f.ups = append(f.ups, up)
		if err := f.ctl.AddLeaf(
			f.member(fmt.Sprintf("leaf%d/down", j), down),
			f.member(fmt.Sprintf("leaf%d/up", j), up),
		); err != nil {
			return err
		}
	}
	for s, sw := range f.spines {
		f.ctl.AddSpine(f.member(fmt.Sprintf("spine%d", s), sw))
	}

	// Uplinks: leaf j's up plane egresses port 0 into its uplink relay,
	// which republishes into the active spine (spine 0 at boot).
	for j, up := range f.ups {
		r, err := NewRelay(RelayConfig{
			Name:           fmt.Sprintf("up%d", j),
			Retx:           up.RetxAddr().String(),
			Dest:           f.spines[0].Addr(),
			Faults:         nextPlan(),
			RequestTimeout: cfg.RequestTimeout,
			Telemetry:      cfg.Telemetry,
		})
		if err != nil {
			return err
		}
		f.upRelays = append(f.upRelays, r)
		if _, err := up.Subscribe(dataplane.SubscriberConfig{
			Port: 0, Addr: r.Addr().String(), Group: "uplink",
		}); err != nil {
			return err
		}
	}
	// Downlinks: spine s egresses port j into relay (s,j), which
	// republishes into leaf j's down plane.
	f.downRelays = make([][]*Relay, cfg.Spines)
	f.downSubs = make([][]*dataplane.Subscription, cfg.Spines)
	for s, sw := range f.spines {
		for j, down := range f.downs {
			r, err := NewRelay(RelayConfig{
				Name:           fmt.Sprintf("dn%d-%d", s, j),
				Retx:           sw.RetxAddr().String(),
				Dest:           down.Addr(),
				Faults:         nextPlan(),
				RequestTimeout: cfg.RequestTimeout,
				Telemetry:      cfg.Telemetry,
			})
			if err != nil {
				return err
			}
			f.downRelays[s] = append(f.downRelays[s], r)
			sub, err := sw.Subscribe(dataplane.SubscriberConfig{
				Port: j, Addr: r.Addr().String(), Group: "downlink",
			})
			if err != nil {
				return err
			}
			f.downSubs[s] = append(f.downSubs[s], sub)
		}
	}

	// Health: per spine a monitor socket, per leaf↔spine pair a
	// heartbeater; link state starts fully connected.
	f.linkDead = make([][]bool, cfg.Leaves)
	f.linkUpG = make([][]*telemetry.Gauge, cfg.Leaves)
	reg := cfg.Telemetry.Reg()
	for j := 0; j < cfg.Leaves; j++ {
		f.linkDead[j] = make([]bool, cfg.Spines)
		f.linkUpG[j] = make([]*telemetry.Gauge, cfg.Spines)
		if reg != nil {
			for s := 0; s < cfg.Spines; s++ {
				g := reg.Gauge("camus_fabric_link_up",
					telemetry.L("leaf", strconv.Itoa(j)), telemetry.L("spine", strconv.Itoa(s)))
				g.Set(1)
				f.linkUpG[j][s] = g
			}
		}
	}
	for s := 0; s < cfg.Spines; s++ {
		s := s
		m, err := newHealthMonitor(cfg.Leaves, cfg.HealthTimeout, func(leaf int) {
			f.onLinkDown(leaf, s)
		})
		if err != nil {
			return err
		}
		f.monitors = append(f.monitors, m)
	}
	f.hbs = make([][]*heartbeater, cfg.Leaves)
	for j := 0; j < cfg.Leaves; j++ {
		for s := 0; s < cfg.Spines; s++ {
			hb, err := newHeartbeater(j, f.monitors[s].Addr(), cfg.HealthInterval)
			if err != nil {
				return err
			}
			f.hbs[j] = append(f.hbs[j], hb)
		}
	}
	return nil
}

// Controller exposes the fabric's epoch controller.
func (f *Fabric) Controller() *Controller { return f.ctl }

// Apply rolls the fabric onto a new global rule set as one epoch.
func (f *Fabric) Apply(ctx context.Context, rules []lang.Rule) (Epoch, error) {
	return f.ctl.Apply(ctx, rules)
}

// PublishAddr is where publishers inject messages at leaf j.
func (f *Fabric) PublishAddr(leaf int) *net.UDPAddr { return f.ups[leaf].Addr() }

// LeafForHost is the leaf a subscriber host lives behind.
func (f *Fabric) LeafForHost(host int) int { return host % f.cfg.Leaves }

// BindHost binds subscriber host's delivery address on its leaf's down
// plane.
func (f *Fabric) BindHost(host int, addr string) error {
	_, err := f.downs[f.LeafForHost(host)].Subscribe(dataplane.SubscriberConfig{
		Port: host, Addr: addr, Group: "host",
	})
	return err
}

// HostRetxAddr is the retransmission channel a subscriber host recovers
// gaps through.
func (f *Fabric) HostRetxAddr(host int) *net.UDPAddr {
	return f.downs[f.LeafForHost(host)].RetxAddr()
}

// Leaf and Spine expose the underlying switches (telemetry, stats).
func (f *Fabric) Leaf(j int) (down, up *dataplane.Switch) { return f.downs[j], f.ups[j] }
func (f *Fabric) Spine(s int) *dataplane.Switch           { return f.spines[s] }

// UplinkRelay and DownlinkRelay expose link endpoints (delivery counts).
func (f *Fabric) UplinkRelay(leaf int) *Relay          { return f.upRelays[leaf] }
func (f *Fabric) DownlinkRelay(spine, leaf int) *Relay { return f.downRelays[spine][leaf] }

// ActiveSpine is the spine leaf j's uplink currently targets.
func (f *Fabric) ActiveSpine(leaf int) int {
	f.linkMu.Lock()
	defer f.linkMu.Unlock()
	return f.active[leaf]
}

// Start launches every switch, relay, heartbeater, and health monitor.
func (f *Fabric) Start(ctx context.Context) {
	ctx, f.cancel = context.WithCancel(ctx)
	f.started = true
	run := func(what string, fn func(context.Context) error) {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			if err := fn(ctx); err != nil && !errors.Is(err, context.Canceled) {
				f.errMu.Lock()
				if f.runErr == nil {
					f.runErr = fmt.Errorf("fabric: %s: %w", what, err)
				}
				f.errMu.Unlock()
			}
		}()
	}
	for j, sw := range f.downs {
		run(fmt.Sprintf("leaf%d/down", j), sw.Run)
	}
	for j, sw := range f.ups {
		run(fmt.Sprintf("leaf%d/up", j), sw.Run)
	}
	for s, sw := range f.spines {
		run(fmt.Sprintf("spine%d", s), sw.Run)
	}
	for j, r := range f.upRelays {
		run(fmt.Sprintf("uplink%d", j), r.Run)
	}
	for s := range f.downRelays {
		for j, r := range f.downRelays[s] {
			run(fmt.Sprintf("downlink%d-%d", s, j), r.Run)
		}
	}
	for _, m := range f.monitors {
		m := m
		f.wg.Add(1)
		go func() { defer f.wg.Done(); m.run() }()
	}
	for _, row := range f.hbs {
		for _, hb := range row {
			hb := hb
			f.wg.Add(1)
			go func() { defer f.wg.Done(); hb.run() }()
		}
	}
}

// BreakLink fails the leaf↔spine link (test/chaos hook): heartbeats
// stop and data crossing the link dies in both directions. Recovery
// — spine-side degrade and uplink reroute — is the health machinery's
// job, observed via camus_fabric_link_* and camus_fabric_reroutes_total.
func (f *Fabric) BreakLink(leaf, spine int) {
	f.hbs[leaf][spine].Break()
	f.downRelays[spine][leaf].Sever()
	f.linkMu.Lock()
	if f.active[leaf] == spine {
		f.upRelays[leaf].Sever()
	}
	f.linkMu.Unlock()
}

// onLinkDown is the health monitors' callback: spine `spine` has lost
// leaf `leaf`. The spine degrades — it stops forwarding into the dead
// link — and every leaf whose active spine no longer reaches all leaves
// is rerouted onto a fully-connected redundant spine, if one exists.
func (f *Fabric) onLinkDown(leaf, spine int) {
	f.linkMu.Lock()
	defer f.linkMu.Unlock()
	if f.linkDead[leaf][spine] {
		return
	}
	f.linkDead[leaf][spine] = true
	f.linkFailures.Inc()
	if g := f.linkUpG[leaf][spine]; g != nil {
		g.Set(0)
	}
	f.downSubs[spine][leaf].Close()
	f.downRelays[spine][leaf].Sever()

	for l := 0; l < f.cfg.Leaves; l++ {
		if f.fullyConnected(f.active[l]) {
			continue
		}
		best := -1
		for cand := 0; cand < f.cfg.Spines; cand++ {
			if cand != f.active[l] && f.fullyConnected(cand) {
				best = cand
				break
			}
		}
		if best < 0 {
			continue // no redundant path: stay on the degraded spine
		}
		f.active[l] = best
		f.upRelays[l].SetDest(f.spines[best].Addr())
		f.reroutes.Inc()
	}
}

// fullyConnected reports whether spine s still reaches every leaf.
// Callers hold linkMu.
func (f *Fabric) fullyConnected(s int) bool {
	for j := 0; j < f.cfg.Leaves; j++ {
		if f.linkDead[j][s] {
			return false
		}
	}
	return true
}

// Close shuts the fabric down in stream order — up planes first (their
// end-of-session drains the uplinks), then spines, then down planes (so
// subscribers get end-of-session last) — and reaps every goroutine.
func (f *Fabric) Close() error {
	f.closeOnce.Do(func() {
		if !f.started {
			f.destroy()
			return
		}
		for _, row := range f.hbs {
			for _, hb := range row {
				hb.Close()
			}
		}
		for _, m := range f.monitors {
			m.Close()
		}
		var firstErr error
		closeAll := func(sws []*dataplane.Switch) {
			for _, sw := range sws {
				if err := sw.Close(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		closeAll(f.ups)
		closeAll(f.spines)
		closeAll(f.downs)
		// Relay Runs end on the upstream end-of-session; canceling the
		// run context closes any relay whose EOS datagram the link ate.
		f.cancel()
		f.wg.Wait()
		for _, r := range f.upRelays {
			r.Close()
		}
		for _, row := range f.downRelays {
			for _, r := range row {
				r.Close()
			}
		}
		f.errMu.Lock()
		if firstErr == nil {
			firstErr = f.runErr
		}
		f.errMu.Unlock()
		f.closeErr = firstErr
	})
	return f.closeErr
}

// destroy releases sockets on a fabric that never started.
func (f *Fabric) destroy() {
	for _, row := range f.hbs {
		for _, hb := range row {
			if hb != nil {
				hb.conn.Close()
			}
		}
	}
	for _, m := range f.monitors {
		m.conn.Close()
	}
	for _, r := range f.upRelays {
		r.Close()
	}
	for _, row := range f.downRelays {
		for _, r := range row {
			r.Close()
		}
	}
	for _, sws := range [][]*dataplane.Switch{f.ups, f.spines, f.downs} {
		for _, sw := range sws {
			sw.Close()
		}
	}
}
