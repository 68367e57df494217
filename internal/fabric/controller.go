package fabric

import (
	"context"
	"fmt"

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
	// DownlinkPort maps a leaf index to the spine egress port toward it.
	// Nil means identity (leaf j behind spine port j).
	DownlinkPort func(leaf int) int
	// Compiler options for every program build.
	Compiler compiler.Options
	// Cover tunes the covering computation (keep fields).
	Cover CoverOptions
	// Policy bounds each member's commit retries.
	Policy controlplane.UpdatePolicy
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

// Controller drives the whole fabric through coordinated epochs: it
// partitions the global rule set across leaves, recompiles each
// program incrementally (per-leaf compiler.Sessions memoize unchanged
// rules across churn), and rolls the epoch out in two phases — every
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
	// ruleKeys[j] maps a rule's canonical string to its session handle,
	// the diff base for full-set Apply semantics.
	ruleKeys []map[string]int
	epoch    uint64

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
	if cfg.DownlinkPort == nil {
		cfg.DownlinkPort = func(leaf int) int { return leaf }
	}
	cover := cfg.Cover
	cover.Compiler = cfg.Compiler
	cfg.Cover = cover
	c := &Controller{
		cfg:      cfg,
		sessions: make([]*compiler.Session, cfg.Leaves),
		ruleKeys: make([]map[string]int, cfg.Leaves),
	}
	for j := range c.sessions {
		c.sessions[j] = compiler.NewSession(cfg.Spec, cfg.Compiler)
		c.ruleKeys[j] = make(map[string]int)
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
	ctl.Policy = c.cfg.Policy
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

// Epoch returns the sequence number of the last committed epoch (0 before
// the first).
func (c *Controller) EpochSeq() uint64 { return c.epoch }

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

// Apply rolls the fabric onto a new global rule set as one epoch. The
// rule set is full-replacement: rules absent from previous epochs are
// added to their leaf's session, rules no longer present are removed, and
// unchanged rules recompile from the session memo. Returns the committed
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
		c.outcome("compile_failed")
		return Epoch{}, err
	}

	// Compile every program for the new epoch before touching a device.
	ep := Epoch{Seq: c.epoch + 1, LeafRules: make([]int, c.cfg.Leaves)}
	leaves := make([]*compiler.Pass, c.cfg.Leaves) // the installed programs' passes
	covers := make([]Cover, c.cfg.Leaves)
	downPorts := make([]int, c.cfg.Leaves)
	for j, part := range parts {
		ep.LeafRules[j] = len(part)
		if err := c.churnSession(j, part); err != nil {
			c.outcome("compile_failed")
			return Epoch{}, fmt.Errorf("fabric: leaf %d: %w", j, err)
		}
		if leaves[j], err = c.sessions[j].RecompilePass(); err != nil {
			c.outcome("compile_failed")
			return Epoch{}, fmt.Errorf("fabric: leaf %d: %w", j, err)
		}
		ep.LeafEntries += leaves[j].Program().Stats.TableEntries
		if covers[j], err = ComputeCover(c.cfg.Spec, part, c.cfg.Cover); err != nil {
			c.outcome("compile_failed")
			return Epoch{}, fmt.Errorf("fabric: leaf %d cover: %w", j, err)
		}
		downPorts[j] = c.cfg.DownlinkPort(j)
	}
	// Every member owns its program instance: installing a program aligns
	// (renumbers) its pipeline states in place against that device's prior
	// epoch, so one instance shared across devices would be remapped out
	// from under every device but the last one installed.
	spineProgs := make([]*compiler.Program, len(c.spines))
	for s := range c.spines {
		if spineProgs[s], err = SpineProgram(c.cfg.Spec, covers, downPorts, c.cfg.Compiler); err != nil {
			c.outcome("compile_failed")
			return Epoch{}, fmt.Errorf("fabric: spine program: %w", err)
		}
	}
	ep.SpineEntries = spineProgs[0].Stats.TableEntries
	globalCover, err := ComputeCover(c.cfg.Spec, rules, c.cfg.Cover)
	if err != nil {
		c.outcome("compile_failed")
		return Epoch{}, fmt.Errorf("fabric: global cover: %w", err)
	}
	up, err := SpinePass(c.cfg.Spec, []Cover{globalCover}, []int{c.cfg.UplinkPort}, c.cfg.Compiler)
	upProgs := make([]*compiler.Program, len(c.ups))
	for j := 0; err == nil && j < len(c.ups); j++ {
		upProgs[j], err = up.Compile()
	}
	if err != nil {
		c.outcome("compile_failed")
		return Epoch{}, fmt.Errorf("fabric: uplink program: %w", err)
	}
	ep.UpEntries = upProgs[0].Stats.TableEntries

	if c.cfg.VerifyCovers {
		for j := range parts {
			spine, err := SpinePass(c.cfg.Spec, []Cover{covers[j]}, []int{downPorts[j]}, c.cfg.Compiler)
			if err == nil {
				_, err = spine.Compile()
			}
			if err != nil {
				c.outcome("compile_failed")
				return Epoch{}, fmt.Errorf("fabric: leaf %d cover program: %w", j, err)
			}
			for what, cover := range map[string]*compiler.Pass{"spine": spine, "uplink": up} {
				ok, witness, err := VerifyCover(leaves[j], cover)
				if err != nil {
					c.outcome("cover_unsound")
					return Epoch{}, fmt.Errorf("fabric: leaf %d %s cover check: %w", j, what, err)
				}
				if !ok {
					c.outcome("cover_unsound")
					return Epoch{}, fmt.Errorf("fabric: leaf %d predicate escapes its %s cover at %v", j, what, witness)
				}
			}
		}
	}

	// The install plan, in commit order: leaf down planes first (a leaf
	// must understand the new epoch's deliveries before the spine starts
	// sending them), then up planes, then spines.
	type step struct {
		m    *boundMember
		prog *compiler.Program
	}
	var plan []step
	for j := range c.downs {
		plan = append(plan, step{c.downs[j], leaves[j].Program()})
	}
	for j := range c.ups {
		plan = append(plan, step{c.ups[j], upProgs[j]})
	}
	for s := range c.spines {
		plan = append(plan, step{c.spines[s], spineProgs[s]})
	}

	// Phase 1: every member's device must fit its program before any
	// device is written. A rejection aborts the epoch untouched.
	for _, s := range plan {
		if err := pipeline.CheckResources(s.prog, s.m.Dev.Config()); err != nil {
			c.outcome("admission_rejected")
			return Epoch{}, fmt.Errorf("fabric: admission failed for %s: %w", s.m.Name, err)
		}
	}

	// Phase 2: sequential commits. A failure at member k (whose own
	// device the per-member commit has already rolled back) triggers a
	// compensating reinstall of the prior program on members 0..k-1.
	committed := make([]struct {
		m   *boundMember
		old *compiler.Program
	}, 0, len(plan))
	for _, s := range plan {
		old := s.m.ctl.Program()
		delta, err := s.m.ctl.Install(ctx, s.prog)
		if err != nil {
			c.rollbacks.Inc()
			if rbErr := c.rollback(ctx, committed); rbErr != nil {
				c.outcome("rollback_failed")
				return Epoch{}, fmt.Errorf("fabric: epoch aborted at %s: %v; fabric rollback incomplete: %w", s.m.Name, err, rbErr)
			}
			c.outcome("rolled_back")
			return Epoch{}, fmt.Errorf("fabric: epoch aborted at %s, all members rolled back: %w", s.m.Name, err)
		}
		ep.Writes += delta.Writes()
		committed = append(committed, struct {
			m   *boundMember
			old *compiler.Program
		}{s.m, old})
	}

	c.epoch++
	ep.Seq = c.epoch
	c.epochG.Set(int64(c.epoch))
	c.leafEntriesG.Set(int64(ep.LeafEntries))
	c.spineEntriesG.Set(int64(ep.SpineEntries))
	c.outcome("committed")
	return ep, nil
}

// rollback reinstalls the prior program on every committed member, in
// reverse commit order (spines first, so a leaf never sees new-epoch
// traffic it no longer understands). All members are attempted; errors
// aggregate.
func (c *Controller) rollback(ctx context.Context, committed []struct {
	m   *boundMember
	old *compiler.Program
}) error {
	var firstErr error
	for i := len(committed) - 1; i >= 0; i-- {
		cm := committed[i]
		if _, err := cm.m.ctl.Install(ctx, cm.old); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", cm.m.Name, err)
		}
	}
	return firstErr
}

// churnSession diffs leaf j's new rule partition against its live session
// set by canonical rule text: removed rules leave, new rules join,
// unchanged rules keep their handles (and their memoized sub-BDDs).
func (c *Controller) churnSession(j int, part []lang.Rule) error {
	keys := c.ruleKeys[j]
	want := make(map[string]int, len(part)) // key -> index into part
	var fresh []lang.Rule
	for i, r := range part {
		k := r.String()
		if _, dup := want[k]; dup {
			continue // identical duplicate rule: one copy suffices
		}
		want[k] = i
		if _, ok := keys[k]; !ok {
			fresh = append(fresh, r)
		}
	}
	var gone []int
	for k, h := range keys {
		if _, ok := want[k]; !ok {
			gone = append(gone, h)
			delete(keys, k)
		}
	}
	if len(gone) > 0 {
		if err := c.sessions[j].RemoveRules(gone...); err != nil {
			return err
		}
	}
	if len(fresh) > 0 {
		handles, err := c.sessions[j].AddRules(fresh)
		if err != nil {
			return err
		}
		for i, r := range fresh {
			keys[r.String()] = handles[i]
		}
	}
	return nil
}
