package fabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

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
	// Heartbeat is every switch's idle egress heartbeat (default 10ms).
	// It lets a link relay detect tail loss promptly, and it is the
	// fabric's liveness clock: a downlink relay that hears nothing, data
	// or heartbeat, for linkTimeout heartbeats fails its link.
	Heartbeat time.Duration
	// RequestTimeout is the link relays' initial retransmission timeout
	// (default 15ms).
	RequestTimeout time.Duration
	// Workers is each switch's shard-lane count (default 1).
	Workers int
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
// Relay, so loss is repaired per hop. A spine→leaf link is alive while
// its relay hears the spine's stream (data or idle heartbeats); a silent
// link degrades the spine (it stops forwarding toward that leaf) and
// reroutes every leaf whose active spine lost full connectivity onto a
// redundant one.
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

	linkMu   sync.Mutex
	linkDead [][]bool // [leaf][spine]
	active   []int    // active spine per leaf

	linkUpG      [][]*telemetry.Gauge
	linkFailures *telemetry.Counter
	reroutes     *telemetry.Counter

	started   bool
	cancel    context.CancelFunc
	stopWatch context.CancelFunc
	watchDone chan struct{} // closed when watchLinks returns
	wg        sync.WaitGroup
	errMu     sync.Mutex
	runErr    error

	closeOnce sync.Once
	closeErr  error
}

// A link fails when its relay hears nothing for linkTimeout heartbeat
// intervals; the link watcher looks linkSweeps times per timeout.
const (
	linkTimeout = 8
	linkSweeps  = 4
)

// New builds the whole fabric — switches, link relays, epoch controller —
// without starting any traffic. Call Start, then Apply.
func New(cfg Config) (*Fabric, error) {
	if cfg.Spec == nil {
		return nil, errors.New("fabric: Config.Spec is required")
	}
	if cfg.Leaves < 1 {
		return nil, fmt.Errorf("fabric: need at least one leaf, got %d", cfg.Leaves)
	}
	if cfg.Spines < 0 {
		return nil, fmt.Errorf("fabric: negative spine count %d", cfg.Spines)
	}
	if cfg.Heartbeat < 0 {
		return nil, fmt.Errorf("fabric: negative heartbeat %v", cfg.Heartbeat)
	}
	if cfg.Spines == 0 {
		cfg.Spines = 1
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 10 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 15 * time.Millisecond
	}

	ctl, err := NewController(ControllerConfig{
		Spec:         cfg.Spec,
		Leaves:       cfg.Leaves,
		UplinkPort:   0,
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

	// Link state starts fully connected.
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

// Start launches every switch and relay, and the link watcher.
func (f *Fabric) Start(ctx context.Context) {
	ctx, f.cancel = context.WithCancel(ctx)
	f.started = true
	watchCtx, stopWatch := context.WithCancel(ctx)
	f.stopWatch, f.watchDone = stopWatch, make(chan struct{})
	go f.watchLinks(watchCtx)
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
}

// watchLinks is the fabric's one liveness loop. A spine→leaf link is
// alive while its downlink relay hears datagrams, data or the spine's
// idle heartbeats. The loop sweeps the relays linkSweeps times per
// timeout and fails each link whose relay heard nothing over linkSweeps
// sweeps in a row, each timed from the end of the last. Counting sweeps,
// not reading the clock, keeps a stalled process from looking like
// silent links: a late sweep counts once. Links are judged from the
// first committed epoch on: before it the fabric carries no traffic, and
// its switches may not have run at all while the epoch compiles.
func (f *Fabric) watchLinks(ctx context.Context) {
	defer close(f.watchDone)
	period := linkTimeout * f.cfg.Heartbeat / linkSweeps
	tick := time.NewTimer(period)
	defer tick.Stop()
	leaves := f.cfg.Leaves
	heard := make([]uint64, f.cfg.Spines*leaves)
	quiet := make([]int, len(heard))
	for ; ; tick.Reset(period) {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if f.ctl.EpochSeq() == 0 {
			continue
		}
		for i := range heard {
			s, j := i/leaves, i%leaves
			if n := f.downRelays[s][j].rcv.Metric("camus_receiver_datagrams_total"); n != heard[i] {
				heard[i], quiet[i] = n, 0
			} else if quiet[i]++; quiet[i] == linkSweeps {
				f.onLinkDown(j, s)
			}
		}
	}
}

// BreakLink fails the leaf↔spine link (test/chaos hook): the spine stops
// sending toward the leaf, so the link falls silent, and data crossing
// it dies in both directions. Recovery — spine-side degrade and uplink
// reroute — is watchLinks's job, observed via camus_fabric_link_* and
// camus_fabric_reroutes_total.
func (f *Fabric) BreakLink(leaf, spine int) {
	f.downSubs[spine][leaf].Close()
	f.downRelays[spine][leaf].Sever()
	f.linkMu.Lock()
	if f.active[leaf] == spine {
		f.upRelays[leaf].Sever()
	}
	f.linkMu.Unlock()
}

// onLinkDown is watchLinks's verdict: spine `spine` has lost leaf
// `leaf`. The spine degrades — it stops forwarding into the dead
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

// Close shuts the fabric down in stream order — the link watcher first,
// so no end-of-session reads as a dead link, then up planes (their
// end-of-session drains the uplinks), spines, and down planes (so
// subscribers get end-of-session last) — and reaps every goroutine.
func (f *Fabric) Close() error {
	f.closeOnce.Do(func() {
		if !f.started {
			f.destroy()
			return
		}
		f.stopWatch()
		<-f.watchDone
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
