package fabric

import (
	"context"
	"fmt"
	"sync/atomic"

	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// Member is one fabric device the epoch controller programs: a leaf's
// down plane (full subscriber rules → local ports), a leaf's up plane
// (global cover → uplink), or a spine (per-leaf covers → downlinks).
type Member struct {
	Name string
	// Dev is the fallible install interface; tests interpose
	// faults.FlakyDevice here to exercise mid-epoch failures.
	Dev controlplane.Device
}

// ControllerConfig configures the fabric epoch controller.
type ControllerConfig struct {
	Spec *spec.Spec
	// Leaves is the number of leaf switches; subscriber hosts are placed
	// behind leaf (host mod Leaves).
	Leaves int
	// UplinkPort is the egress port of every leaf up plane toward its
	// spine.
	UplinkPort int
	// VerifyCovers proves BDD containment of every leaf program in its
	// spine and uplink covers before any device is touched.
	VerifyCovers bool
	Telemetry    *telemetry.Telemetry
}

// Epoch reports one committed fabric rollout.
type Epoch struct {
	Seq          uint64
	LeafRules    []int // rules placed per leaf
	LeafEntries  int   // table entries across leaf down planes
	UpEntries    int   // entries of one leaf up plane (global cover)
	SpineEntries int   // entries of the spine program (all covers)
	Writes       int   // device writes across all members
}

// CompressionRatio is how much coarser the spine program is than the sum
// of the leaf programs it covers.
func (e Epoch) CompressionRatio() float64 {
	if e.SpineEntries == 0 {
		return 0
	}
	return float64(e.LeafEntries) / float64(e.SpineEntries)
}

type boundMember struct {
	Member
	ctl *controlplane.Controller
}

// step is a member and a program for it: one to install, or the one to
// roll back to.
type step struct {
	m    *boundMember
	prog *compiler.Program
}

// Controller drives the whole fabric through coordinated epochs: it
// partitions the global rule set across leaves, recompiles each
// program through a per-leaf compiler.Session (a rule already live is not
// resolved again), and rolls the epoch out in two phases — every
// member's program is admission-checked against its device resources
// before a single write happens, then members commit sequentially, and
// any member's install failure rolls every already-committed member back
// to the prior epoch. The fabric therefore never serves a mix of epochs.
type Controller struct {
	cfg      ControllerConfig
	downs    []*boundMember
	ups      []*boundMember
	spines   []*boundMember
	sessions []*compiler.Session
	epoch    atomic.Uint64 // read by the fabric's link watcher

	epochOutcomes map[string]*telemetry.Counter
	rollbacks     *telemetry.Counter
	devicesG      *telemetry.Gauge
	epochG        *telemetry.Gauge
	leafEntriesG  *telemetry.Gauge
	spineEntriesG *telemetry.Gauge
}

// NewController creates an epoch controller with no members registered.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("fabric: ControllerConfig.Spec is required")
	}
	if cfg.Leaves < 1 {
		return nil, fmt.Errorf("fabric: need at least one leaf, got %d", cfg.Leaves)
	}
	c := &Controller{cfg: cfg, sessions: make([]*compiler.Session, cfg.Leaves)}
	for j := range c.sessions {
		c.sessions[j] = compiler.NewSession(cfg.Spec, compiler.Options{})
	}
	if reg := cfg.Telemetry.Reg(); reg != nil {
		c.epochOutcomes = make(map[string]*telemetry.Counter)
		for _, o := range []string{"committed", "compile_failed", "cover_unsound", "admission_rejected", "rolled_back", "rollback_failed"} {
			c.epochOutcomes[o] = reg.Counter("camus_fabric_epoch_total", telemetry.L("outcome", o))
		}
		c.rollbacks = reg.Counter("camus_fabric_rollbacks_total")
		c.devicesG = reg.Gauge("camus_fabric_devices")
		c.epochG = reg.Gauge("camus_fabric_epoch")
		c.leafEntriesG = reg.Gauge("camus_fabric_leaf_entries")
		c.spineEntriesG = reg.Gauge("camus_fabric_spine_entries")
	}
	return c, nil
}

func (c *Controller) bind(m Member) *boundMember {
	ctl := controlplane.NewController(m.Dev)
	ctl.SetTelemetry(c.cfg.Telemetry)
	bm := &boundMember{Member: m, ctl: ctl}
	c.devicesG.Set(int64(len(c.downs) + len(c.ups) + len(c.spines) + 1))
	return bm
}

// AddLeaf registers leaf j's two planes: the down plane carrying its full
// subscriber rules, and the up plane carrying the global cover toward the
// spine. Must be called once per leaf, in leaf order.
func (c *Controller) AddLeaf(down, up Member) error {
	if len(c.downs) >= c.cfg.Leaves {
		return fmt.Errorf("fabric: all %d leaves already registered", c.cfg.Leaves)
	}
	c.downs = append(c.downs, c.bind(down))
	c.ups = append(c.ups, c.bind(up))
	return nil
}

// AddSpine registers a spine switch. At least one is required; redundant
// spines receive the same program and serve as failover paths.
func (c *Controller) AddSpine(m Member) {
	c.spines = append(c.spines, c.bind(m))
}

// EpochSeq returns the sequence number of the last committed epoch (0
// before the first).
func (c *Controller) EpochSeq() uint64 { return c.epoch.Load() }

// Place partitions rules across leaves by forwarding host: a rule forwards
// behind leaf (host mod Leaves); a rule forwarding to hosts behind several
// leaves is split into per-leaf copies carrying only that leaf's ports.
func Place(rules []lang.Rule, leaves int) ([][]lang.Rule, error) {
	out := make([][]lang.Rule, leaves)
	for _, r := range rules {
		byLeaf := make(map[int][]int)
		var rest []lang.Action
		for _, a := range r.Actions {
			if a.Kind != lang.ActFwd {
				rest = append(rest, a)
				continue
			}
			for _, p := range a.Ports {
				byLeaf[p%leaves] = append(byLeaf[p%leaves], p)
			}
		}
		if len(byLeaf) == 0 {
			return nil, fmt.Errorf("fabric: rule %d (%s) forwards nowhere; placement needs a fwd action", r.ID, r)
		}
		for j, ports := range byLeaf {
			copyRule := r
			copyRule.Actions = append([]lang.Action{lang.Fwd(ports...)}, rest...)
			out[j] = append(out[j], copyRule)
		}
	}
	return out, nil
}

func (c *Controller) outcome(name string) {
	if ctr, ok := c.epochOutcomes[name]; ok {
		ctr.Inc()
	}
}

// fail counts an epoch that ended in outcome, and returns err.
func (c *Controller) fail(outcome string, err error) (Epoch, error) {
	c.outcome(outcome)
	return Epoch{}, err
}

// Apply rolls the fabric onto a new global rule set as one epoch. The
// rule set is full-replacement: each leaf's session Syncs to its part, so
// only the rules new to a leaf are resolved. Returns the committed
// epoch summary, or an error with every device back on the prior epoch
// (two-phase: admission for all members precedes the first write).
func (c *Controller) Apply(ctx context.Context, rules []lang.Rule) (Epoch, error) {
	if len(c.downs) != c.cfg.Leaves {
		return Epoch{}, fmt.Errorf("fabric: %d of %d leaves registered", len(c.downs), c.cfg.Leaves)
	}
	if len(c.spines) == 0 {
		return Epoch{}, fmt.Errorf("fabric: no spine registered")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	parts, err := Place(rules, c.cfg.Leaves)
	if err != nil {
		return c.fail("compile_failed", err)
	}

	// Compile every program for the new epoch before touching a device.
	ep := Epoch{Seq: c.epoch.Load() + 1, LeafRules: make([]int, c.cfg.Leaves)}
	leaves := make([]*compiler.Pass, c.cfg.Leaves) // the installed programs' passes
	covers := make([]Cover, c.cfg.Leaves)
	downPorts := make([]int, c.cfg.Leaves)
	for j, part := range parts {
		ep.LeafRules[j] = len(part)
		if err = c.sessions[j].Sync(ctx, compiler.Source{Rules: part}); err == nil {
			leaves[j], err = c.sessions[j].RecompilePass()
		}
		if err != nil {
			return c.fail("compile_failed", fmt.Errorf("fabric: leaf %d: %w", j, err))
		}
		ep.LeafEntries += leaves[j].Program().Stats.TableEntries
		if covers[j], err = ComputeCover(c.cfg.Spec, part, CoverOptions{}); err != nil {
			return c.fail("compile_failed", fmt.Errorf("fabric: leaf %d cover: %w", j, err))
		}
		downPorts[j] = j // leaf j sits behind spine port j
	}
	// One program per role: an install reads a program and writes nothing
	// into it, so every spine runs one instance, and every up plane one.
	spineProg, err := SpineProgram(c.cfg.Spec, covers, downPorts, compiler.Options{})
	if err != nil {
		return c.fail("compile_failed", fmt.Errorf("fabric: spine program: %w", err))
	}
	ep.SpineEntries = spineProg.Stats.TableEntries
	globalCover, err := ComputeCover(c.cfg.Spec, rules, CoverOptions{})
	if err != nil {
		return c.fail("compile_failed", fmt.Errorf("fabric: global cover: %w", err))
	}
	up, err := SpinePass(c.cfg.Spec, []Cover{globalCover}, []int{c.cfg.UplinkPort}, compiler.Options{})
	if err == nil {
		_, err = up.Compile()
	}
	if err != nil {
		return c.fail("compile_failed", fmt.Errorf("fabric: uplink program: %w", err))
	}
	ep.UpEntries = up.Program().Stats.TableEntries

	if c.cfg.VerifyCovers {
		for j := range parts {
			spine, err := SpinePass(c.cfg.Spec, []Cover{covers[j]}, []int{downPorts[j]}, compiler.Options{})
			if err == nil {
				_, err = spine.Compile()
			}
			if err != nil {
				return c.fail("compile_failed", fmt.Errorf("fabric: leaf %d cover program: %w", j, err))
			}
			if err := checkCovers(j, leaves[j], spine, up); err != nil {
				return c.fail("cover_unsound", err)
			}
		}
	}

	// The install plan, in commit order: leaf down planes first (a leaf
	// must understand the new epoch's deliveries before the spine starts
	// sending them), then up planes, then spines.
	var plan []step
	for j := range c.downs {
		plan = append(plan, step{c.downs[j], leaves[j].Program()})
	}
	for _, m := range c.ups {
		plan = append(plan, step{m, up.Program()})
	}
	for _, m := range c.spines {
		plan = append(plan, step{m, spineProg})
	}

	// Phase 1: every member's device must fit its program before any
	// device is written. A rejection aborts the epoch untouched.
	for _, s := range plan {
		if err := pipeline.CheckResources(s.prog, s.m.Dev.Config()); err != nil {
			return c.fail("admission_rejected", fmt.Errorf("fabric: admission failed for %s: %w", s.m.Name, err))
		}
	}

	// Phase 2: sequential commits. A failure at member k (whose own
	// device the per-member commit has already rolled back) triggers a
	// compensating reinstall of the prior program on members 0..k-1.
	// Update admits again what phase 1 admitted: it rejects nothing here.
	committed := make([]step, 0, len(plan)) // each with its prior program
	for _, s := range plan {
		old := s.m.ctl.Program()
		delta, err := s.m.ctl.Update(ctx, s.prog)
		if err != nil {
			c.rollbacks.Inc()
			if rbErr := c.rollback(ctx, committed); rbErr != nil {
				return c.fail("rollback_failed", fmt.Errorf("fabric: epoch aborted at %s: %v; fabric rollback incomplete: %w", s.m.Name, err, rbErr))
			}
			return c.fail("rolled_back", fmt.Errorf("fabric: epoch aborted at %s, all members rolled back: %w", s.m.Name, err))
		}
		ep.Writes += delta.Writes()
		committed = append(committed, step{s.m, old})
	}

	ep.Seq = c.epoch.Add(1)
	c.epochG.Set(int64(ep.Seq))
	c.leafEntriesG.Set(int64(ep.LeafEntries))
	c.spineEntriesG.Set(int64(ep.SpineEntries))
	c.outcome("committed")
	return ep, nil
}

// rollback reinstalls the prior program on every committed member, in
// reverse commit order (spines first, so a leaf never sees new-epoch
// traffic it no longer understands); each program ran on its device, so
// Update admits it again. All members are attempted; errors aggregate.
func (c *Controller) rollback(ctx context.Context, committed []step) error {
	var firstErr error
	for i := len(committed) - 1; i >= 0; i-- {
		cm := committed[i]
		if _, err := cm.m.ctl.Update(ctx, cm.prog); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", cm.m.Name, err)
		}
	}
	return firstErr
}

// checkCovers proves leaf j's program inside its spine cover and then inside
// the uplink's global cover, and names the first it escapes: a leaf that
// escapes the global cover escapes its own too.
func checkCovers(j int, leaf, spine, up *compiler.Pass) error {
	for _, cover := range []struct {
		what string
		pass *compiler.Pass
	}{{"spine", spine}, {"uplink", up}} {
		ok, witness, err := VerifyCover(leaf, cover.pass)
		if err != nil {
			return fmt.Errorf("fabric: leaf %d %s cover check: %w", j, cover.what, err)
		}
		if !ok {
			return fmt.Errorf("fabric: leaf %d predicate escapes its %s cover at %v", j, cover.what, witness)
		}
	}
	return nil
}
