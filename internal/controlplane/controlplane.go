// Package controlplane implements the runtime half of Camus: installing a
// compiled program on a switch and updating it in place when the
// subscription set changes.
//
// The paper notes (§3) that highly dynamic workloads need incremental
// techniques — BDD memoization at compile time and table-entry re-use at
// install time (the CoVisor approach). This package implements the install
// side: when a new program replaces an old one, its states are paired with
// the old one's by behavioral signature (identical sub-BDDs are twins), so
// unchanged parts of the rule set diff to zero and only the delta counts as
// device writes.
package controlplane

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
)

// TableDelta counts the changes to one kind of device state: table
// entries, or multicast groups.
type TableDelta struct {
	Added, Removed, Reused int
}

// Delta summarizes an update: what a real control plane would push to the
// ASIC. Reused entries cost nothing; added/removed entries each cost one
// driver write.
type Delta struct {
	Entries TableDelta // totals across tables (leaf included)
	Groups  TableDelta // multicast group adds/removes/reuse
}

// Writes returns the number of device writes the update needs.
func (d Delta) Writes() int {
	return d.Entries.Added + d.Entries.Removed + d.Groups.Added + d.Groups.Removed
}

func (d Delta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "entries: +%d -%d =%d; groups: +%d -%d =%d; writes=%d",
		d.Entries.Added, d.Entries.Removed, d.Entries.Reused,
		d.Groups.Added, d.Groups.Removed, d.Groups.Reused, d.Writes())
	return b.String()
}

// Device is the fallible write interface the control plane installs
// through. *pipeline.Switch satisfies it; tests wrap it with a flaky
// device to exercise the retry/rollback path.
type Device interface {
	Program() *compiler.Program
	Config() pipeline.Config
	Reinstall(*compiler.Program) error
}

// UpdatePolicy bounds the commit phase of an update: a transient
// device-write failure is retried up to maxRetries times, the delay
// doubling from Backoff up to MaxBackoff. The zero value uses the
// defaults below.
type UpdatePolicy struct {
	Backoff    time.Duration // initial retry delay (default 1ms)
	MaxBackoff time.Duration // delay cap (default 50ms)
	// Sleep, when set, replaces the default backoff wait (a timer that
	// also watches the context). It is a test hook: cancellation is
	// still honored once it returns, but the hook itself is not
	// interrupted, so production configs should leave it nil.
	Sleep func(time.Duration)
}

// maxRetries is how often commit retries a transient write failure.
const maxRetries = 3

func (p UpdatePolicy) withDefaults() UpdatePolicy {
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 50 * time.Millisecond
	}
	return p
}

// wait blocks for d or until ctx is done, whichever comes first, and
// returns ctx.Err() when the wait was cut short. This is what makes a
// canceled install return promptly instead of sleeping out the full
// backoff schedule between retries.
func (p UpdatePolicy) wait(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		p.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// transient reports whether a device error advertises itself as worth
// retrying (via a `Transient() bool` method anywhere in its chain).
func transient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// commit pushes newProg to dev, retrying transient write failures per
// policy until ctx is done; the backoff wait between retries selects on
// ctx.Done(), so cancellation interrupts the schedule mid-sleep. On
// permanent failure, retry exhaustion, or cancellation it rolls the
// device back to oldProg with a compensating reinstall, so the device
// never stays on a half-committed update. The span, when non-nil,
// records each retry and the final outcome.
func commit(ctx context.Context, dev Device, pol UpdatePolicy, newProg, oldProg *compiler.Program, span *telemetry.Span) error {
	pol = pol.withDefaults()
	delay := pol.Backoff
	var err error
	retries := 0
	for attempt := 0; ; attempt++ {
		if err = dev.Reinstall(newProg); err == nil {
			span.SetLabel("retries", fmt.Sprint(retries))
			span.End(nil)
			return nil
		}
		if !transient(err) || attempt >= maxRetries {
			break
		}
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (last write error: %v)", ctx.Err(), err)
			break
		}
		retries++
		if werr := pol.wait(ctx, delay); werr != nil {
			err = fmt.Errorf("%w (last write error: %v)", werr, err)
			break
		}
		delay = min(2*delay, pol.MaxBackoff)
	}
	span.SetLabel("retries", fmt.Sprint(retries))
	if rbErr := dev.Reinstall(oldProg); rbErr != nil {
		span.EndOutcome("rollback_failed", rbErr)
		return fmt.Errorf("controlplane: install failed (%v); rollback also failed: %w", err, rbErr)
	}
	span.EndOutcome("rolled_back", err)
	return fmt.Errorf("controlplane: install failed, device rolled back to prior program: %w", err)
}

// Controller manages the program installed on one switch. It keeps no copy
// of that program: the device's is the base every update diffs against,
// whichever controller wrote it.
type Controller struct {
	dev Device
	tel *telemetry.Telemetry
	// Policy bounds the commit phase; the zero value uses defaults.
	Policy UpdatePolicy
}

// NewController wraps a device that already has its initial program
// installed (pipeline.New installs at construction).
func NewController(dev Device) *Controller {
	return &Controller{dev: dev}
}

// SetTelemetry routes install spans and counters through t. Safe to call
// once, before the controller is shared.
func (c *Controller) SetTelemetry(t *telemetry.Telemetry) { c.tel = t }

// SetDevice reroutes installs through dev — a fault-injection wrapper
// around the device the controller was built on.
func (c *Controller) SetDevice(dev Device) { c.dev = dev }

// Program returns the program the device runs.
func (c *Controller) Program() *compiler.Program { return c.dev.Program() }

// Update installs newProg in two phases. Phase one admits the program:
// it is checked against the device's TCAM/SRAM/group resources before a
// single write is issued, so an oversized update is rejected with the
// device untouched. Admission reads only the program and the device's
// fixed Config, so a program the device already ran is always admitted
// again, and a rollback may go through Update too. Phase two diffs the
// program against the one the device runs and commits — retrying
// transient write failures per Policy (between retries the context is
// consulted, so a canceled install stops retrying and rolls back) and
// rolling back to the prior program on permanent failure, so concurrent
// packets always see a complete program (old or new, never half). The
// whole operation is recorded as a `controlplane_install` span with an
// outcome label and the delta's write count, and the writes are counted
// only once committed. The returned Delta reports how much of the old
// configuration was reused. A rule set to be vetted first reaches it
// through analyze.Gate.Admit, which returns the program it priced.
func (c *Controller) Update(ctx context.Context, newProg *compiler.Program) (Delta, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	span := c.tel.Trc().Start(ctx, "controlplane_install")
	if err := pipeline.CheckResources(newProg, c.dev.Config()); err != nil {
		span.EndOutcome("admission_rejected", err)
		return Delta{}, fmt.Errorf("controlplane: update rejected at admission: %w", err)
	}
	base := c.dev.Program()
	delta := DiffPrograms(base, newProg)
	span.SetLabel("writes", fmt.Sprint(delta.Writes()))
	if err := commit(ctx, c.dev, c.Policy, newProg, base, span); err != nil {
		return Delta{}, err
	}
	c.tel.Reg().Counter("camus_controlplane_device_writes_total").Add(uint64(delta.Writes()))
	return delta, nil
}

// AlignStates pairs newProg's pipeline states with oldProg's by behaviour:
// it merges the two programs' signature lists (Program.Signatures) and
// returns, for each new state, the old state whose sub-BDD is identical, or
// -1 when there is none; a new initial state with no twin is paired with the
// old initial state when no other new state took it. Neither program is
// written.
func AlignStates(oldProg, newProg *compiler.Program) []int {
	olds, news := oldProg.Signatures, newProg.Signatures

	// Both lists ascend by signature, then state: the new states of one
	// signature take its old twins, smallest first, in ascending order. A
	// compiled program's states are 0..NumStates-1.
	twins := make([]int, len(news))
	oldInitialTaken := false
	i := 0
	for _, n := range news {
		for i < len(olds) && slices.Compare(olds[i].Sig[:], n.Sig[:]) < 0 {
			i++
		}
		twins[n.State] = -1
		if i < len(olds) && olds[i].Sig == n.Sig {
			twins[n.State] = olds[i].State
			oldInitialTaken = oldInitialTaken || olds[i].State == oldProg.InitialState
			i++
		}
	}
	// The entry points play the same role even when their downstream
	// behavior changed (that is what an update *is*), so pin the new
	// initial state to the old one when neither found a twin. Entries
	// under the unchanged part of the rule set then diff to zero.
	if s := newProg.InitialState; s < len(twins) && twins[s] < 0 && !oldInitialTaken {
		twins[s] = oldProg.InitialState
	}
	return twins
}

// sig is the content hash of an action set or a multicast group.
type sig struct{ a, b uint64 }

func (s sig) compare(t sig) int {
	if s.a != t.a {
		return cmp.Compare(s.a, t.a)
	}
	return cmp.Compare(s.b, t.b)
}

// actionSig is an action set's identity: its class sum, the same in every
// program.
func actionSig(a compiler.ActionSet) sig {
	s := a.Sum()
	return sig{s[0], s[1]}
}

// entryKey identifies an installed entry for diffing, in five words: state
// (the high half), table (its index in the diff's table names, above the low
// byte) and kind, the bounds, and the target in two — the next state and 0,
// or, for a row that decides and a leaf entry, its action's content hash. A
// leaf entry keeps state and bounds 0: its match is the per-program number
// of that same action.
type entryKey [5]uint64

func (k entryKey) compare(l entryKey) int { return slices.Compare(k[:], l[:]) }

// DiffPrograms computes the entry and group delta of installing newProg over
// oldProg: each program's entries become a sorted list of compact keys, a new
// state keyed by its old twin (AlignStates), and merging old with new counts
// them; its groups are looked up in the other program's.
func DiffPrograms(oldProg, newProg *compiler.Program) Delta {
	names := []string{"leaf"} // tables are matched by name: field lists may differ
	for _, p := range [...]*compiler.Program{oldProg, newProg} {
		for _, f := range p.Fields {
			names = append(names, f.Name) // a name's first place is its number
		}
	}
	return Delta{
		Entries: mergeDiff(entryKeys(oldProg, names, nil), entryKeys(newProg, names, AlignStates(oldProg, newProg))),
		Groups:  groupDiff(groupKeys(oldProg), groupKeys(newProg)),
	}
}

// mergeDiff sorts two key lists, drops repeats, and counts the keys only in
// news as added, only in olds as removed, and in both as reused.
func mergeDiff(olds, news []entryKey) TableDelta {
	slices.SortFunc(olds, entryKey.compare)
	slices.SortFunc(news, entryKey.compare)
	olds, news = slices.Compact(olds), slices.Compact(news)
	var d TableDelta
	for o, n := 0, 0; o < len(olds) && n < len(news); {
		switch c := olds[o].compare(news[n]); {
		case c < 0:
			o++
		case c > 0:
			n++
		default:
			d.Reused++
			o, n = o+1, n+1
		}
	}
	d.Added, d.Removed = len(news)-d.Reused, len(olds)-d.Reused
	return d
}

// entryKeys lists the program's table entries, its tables numbered by
// their place in names and its states by stateKey. A leaf entry is keyed by
// its kind and its action's content.
func entryKeys(p *compiler.Program, names []string, twins []int) []entryKey {
	keys := make([]entryKey, 0, p.EntriesTotal())
	for i, t := range p.Tables {
		id := uint64(slices.Index(names, p.Fields[i].Name)) << 8
		for _, e := range t.Entries {
			to := sig{}
			if a, ok := compiler.Decides(e.Next); ok {
				to = actionSig(p.Actions[a])
			} else {
				to.a = stateKey(twins, e.Next)
			}
			keys = append(keys, entryKey{stateKey(twins, e.State)<<32 | id | uint64(e.Kind), e.Lo, e.Hi, to.a, to.b})
		}
	}
	for _, e := range p.Leaf.Entries { // the leaf is table 0
		a, _ := compiler.Decides(e.Next)
		act := actionSig(p.Actions[a])
		keys = append(keys, entryKey{uint64(e.Kind), 0, 0, act.a, act.b})
	}
	return keys
}

// stateKey is state s's number in a diff. The old program (twins nil) keys
// a state by its own number; the new one by its old twin's, or, without a
// twin, by a number no old state has.
func stateKey(twins []int, s int) uint64 {
	switch {
	case twins == nil:
		return uint64(s)
	case twins[s] >= 0:
		return uint64(twins[s])
	}
	return 1<<31 + uint64(s)
}

// groupDiff counts the groups only in news as added, only in olds as
// removed, and in both as reused. A program's group keys are distinct — its
// groups are one per port set — so only the shorter list is sorted, and each
// key of the longer is looked up in it: a first install, whose base has no
// groups, sorts nothing.
func groupDiff(olds, news []sig) TableDelta {
	short, long := olds, news
	if len(short) > len(long) {
		short, long = long, short
	}
	var d TableDelta
	if len(short) > 0 {
		slices.SortFunc(short, sig.compare)
		for _, k := range long {
			if _, ok := slices.BinarySearchFunc(short, k, sig.compare); ok {
				d.Reused++
			}
		}
	}
	d.Added, d.Removed = len(news)-d.Reused, len(olds)-d.Reused
	return d
}

// groupKeys is the program's multicast groups, each as its port set's
// identity (PortSet.Hash), which the ports alone decide.
func groupKeys(p *compiler.Program) []sig {
	keys := make([]sig, len(p.Groups))
	for g, ports := range p.Groups {
		h := ports.Hash()
		keys[g] = sig{h[0], h[1]}
	}
	return keys
}
