// Package controlplane implements the runtime half of Camus: installing a
// compiled program on a switch and updating it in place when the
// subscription set changes.
//
// The paper notes (§3) that highly dynamic workloads need incremental
// techniques — BDD memoization at compile time and table-entry re-use at
// install time (the CoVisor approach). This package implements the install
// side: when a new program replaces an old one, states are aligned by
// behavioral signature (identical sub-BDDs get identical state numbers),
// so unchanged parts of the rule set diff to zero and only the delta is
// pushed to the device.
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

// TableDelta counts entry changes for one table.
type TableDelta struct {
	Added, Removed, Reused int
}

// Delta summarizes an update: what a real control plane would push to the
// ASIC. Reused entries cost nothing; added/removed entries each cost one
// driver write.
type Delta struct {
	PerTable map[string]TableDelta
	Entries  TableDelta // totals across tables (leaf included)
	Groups   TableDelta // multicast group adds/removes/reuse
}

// Writes returns the number of device writes the update needs.
func (d Delta) Writes() int {
	return d.Entries.Added + d.Entries.Removed + d.Groups.Added + d.Groups.Removed
}

// tally records a table's delta, when it has one, and adds it to the totals.
func (d *Delta) tally(table string, td TableDelta) {
	if td != (TableDelta{}) {
		d.PerTable[table] = td
		d.Entries.Added += td.Added
		d.Entries.Removed += td.Removed
		d.Entries.Reused += td.Reused
	}
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

// UpdatePolicy bounds the commit phase of an update: how often a
// transient device-write failure is retried, and how the retry delay
// grows. The zero value uses the defaults below.
type UpdatePolicy struct {
	MaxRetries    int           // transient-failure retries (default 3)
	Backoff       time.Duration // initial retry delay (default 1ms)
	BackoffFactor float64       // delay growth per retry (default 2)
	MaxBackoff    time.Duration // delay cap (default 50ms)
	// Sleep, when set, replaces the default backoff wait (a timer that
	// also watches the context). It is a test hook: cancellation is
	// still honored once it returns, but the hook itself is not
	// interrupted, so production configs should leave it nil.
	Sleep func(time.Duration)
}

func (p UpdatePolicy) withDefaults() UpdatePolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	if p.BackoffFactor < 1 {
		p.BackoffFactor = 2
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
		if !transient(err) || attempt >= pol.MaxRetries {
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
		delay = time.Duration(float64(delay) * pol.BackoffFactor)
		if delay > pol.MaxBackoff {
			delay = pol.MaxBackoff
		}
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

// start opens the span one control-plane operation is recorded under.
func (c *Controller) start(ctx context.Context, name string, labels ...telemetry.Label) (context.Context, *telemetry.Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx, c.tel.Trc().Start(ctx, name, labels...)
}

// Program returns the program the device runs.
func (c *Controller) Program() *compiler.Program { return c.dev.Program() }

// Update installs newProg in two phases. Phase one admits the program:
// it is checked against the device's TCAM/SRAM/group resources before a
// single write is issued, so an oversized update is rejected with the
// device untouched. Phase two aligns states, computes the entry delta,
// and commits — retrying transient write failures per Policy (between
// retries the context is consulted, so a canceled install stops retrying
// and rolls back) and rolling back to the prior program on permanent
// failure, so concurrent packets always see a complete program (old or
// new, never half). The whole operation is recorded as a
// `controlplane_install` span with an outcome label and the delta's
// write count. The returned Delta reports how much of the old
// configuration was reused. A rule set to be vetted first reaches it
// through analyze.Gate.Admit, which returns the program it priced.
func (c *Controller) Update(ctx context.Context, newProg *compiler.Program) (Delta, error) {
	ctx, span := c.start(ctx, "controlplane_install")
	return c.update(ctx, span, newProg)
}

// update is Update on a span the caller opened (Churn records its own).
func (c *Controller) update(ctx context.Context, span *telemetry.Span, newProg *compiler.Program) (Delta, error) {
	if err := pipeline.CheckResources(newProg, c.dev.Config()); err != nil {
		span.EndOutcome("admission_rejected", err)
		return Delta{}, fmt.Errorf("controlplane: update rejected at admission: %w", err)
	}
	return c.install(ctx, span, newProg)
}

// Install is Update without the resource-admission phase: callers that
// admit fleet-wide (the fabric's two-phase epoch checks every member's
// resources before any member commits) run pipeline.CheckResources
// themselves, then commit each member through Install. The same
// guarantees as Update apply — on failure the device is rolled back to
// the prior program. Rollback
// reinstalls in particular must go through Install, not Update, so that a
// program the device already ran is never re-rejected at admission.
func (c *Controller) Install(ctx context.Context, newProg *compiler.Program) (Delta, error) {
	ctx, span := c.start(ctx, "controlplane_install")
	return c.install(ctx, span, newProg)
}

// install is the one delta-install path every entry point ends in: align
// newProg's states to the program the device runs, diff, commit with the
// retry/rollback policy, and only then count the writes. Over a program
// whose field tables have no row — its rules, if any, left one terminal,
// as a switch starts on — there is nothing to align with, and the delta is
// counted. It ends span.
func (c *Controller) install(ctx context.Context, span *telemetry.Span, newProg *compiler.Program) (Delta, error) {
	var delta Delta
	base := c.dev.Program()
	if !slices.ContainsFunc(base.Tables, func(t *compiler.Table) bool { return len(t.Entries) > 0 }) {
		delta = countInstall(base, newProg)
	} else {
		AlignStates(base, newProg)
		delta = DiffPrograms(base, newProg)
	}
	span.SetLabel("writes", fmt.Sprint(delta.Writes()))
	if err := commit(ctx, c.dev, c.Policy, newProg, base, span); err != nil {
		return Delta{}, err
	}
	c.tel.Reg().Counter("camus_controlplane_device_writes_total").Add(uint64(delta.Writes()))
	return delta, nil
}

// AlignStates renumbers newProg's pipeline states so that states whose
// sub-BDD behavior is identical to a state in oldProg get the old number:
// it merges the two programs' signature lists (Program.Signatures). States
// with no behavioral twin get fresh numbers above both programs' ranges to
// avoid collisions.
func AlignStates(oldProg, newProg *compiler.Program) {
	olds, news := oldProg.Signatures, newProg.Signatures

	// Both lists ascend by signature, then state: the new states of one
	// signature take its old twins, smallest first, in ascending order.
	pairs := make([]statePair, len(news)) // new state -> old twin, -1 without
	oldInitialTaken := false
	i, next := 0, 0 // next: above every state of either program
	for _, o := range olds {
		next = max(next, o.State+1)
	}
	for j, n := range news {
		for i < len(olds) && slices.Compare(olds[i].Sig[:], n.Sig[:]) < 0 {
			i++
		}
		pairs[j], next = statePair{n.State, -1}, max(next, n.State+1)
		if i < len(olds) && olds[i].Sig == n.Sig {
			pairs[j].to = olds[i].State
			oldInitialTaken = oldInitialTaken || olds[i].State == oldProg.InitialState
			i++
		}
	}
	slices.SortFunc(pairs, func(a, b statePair) int { return cmp.Compare(a.from, b.from) })

	// The entry points play the same role even when their downstream
	// behavior changed (that is what an update *is*), so pin the new
	// initial state to the old one when neither found a twin. Entries
	// under the unchanged part of the rule set then diff to zero.
	initial, ok := slices.BinarySearchFunc(pairs, newProg.InitialState, statePair.compareFrom)
	if ok && pairs[initial].to < 0 && !oldInitialTaken {
		pairs[initial].to = oldProg.InitialState
	}
	// Fresh numbers for unmatched states, in ascending order of the state,
	// starting above everything used.
	for j := range pairs {
		if pairs[j].to < 0 {
			pairs[j].to = next
			next++
		}
	}
	newProg.RemapStates(func(st int) int {
		if st < len(pairs) && pairs[st].from == st { // a freshly compiled program's states are dense
			return pairs[st].to
		}
		if j, ok := slices.BinarySearchFunc(pairs, st, statePair.compareFrom); ok {
			return pairs[j].to
		}
		return st
	})
}

// statePair renumbers one state.
type statePair struct{ from, to int }

func (p statePair) compareFrom(st int) int { return cmp.Compare(p.from, st) }

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

// entryKey identifies an installed entry for diffing, in six words: state,
// table (its index in the diff's table names) and kind, the bounds, and the
// target in two — the next state and 0, or, for a row that decides and a
// leaf entry, its action's content hash. A leaf entry keeps state and
// bounds 0: its match is the per-program number of that same action.
type entryKey [6]uint64

func (k entryKey) compare(l entryKey) int { return slices.Compare(k[:], l[:]) }

// DiffPrograms computes the per-table entry delta between two programs
// whose states have been aligned: each program's entries, and its groups,
// become a sorted list of compact keys, and merging old with new counts it.
func DiffPrograms(oldProg, newProg *compiler.Program) Delta {
	names := []string{"leaf"} // tables are matched by name: field lists may differ
	for _, p := range [...]*compiler.Program{oldProg, newProg} {
		for _, f := range p.Fields {
			names = append(names, f.Name) // a name's first place is its number
		}
	}
	oldKeys, newKeys := entryKeys(oldProg, names), entryKeys(newProg, names)
	perTable := make([]TableDelta, len(names))
	mergeDiff(oldKeys, newKeys, entryKey.compare, func(k entryKey) *TableDelta { return &perTable[k[1]>>8] })

	d := Delta{PerTable: make(map[string]TableDelta, len(names))}
	for i, td := range perTable {
		d.tally(names[i], td)
	}
	mergeDiff(groupKeys(oldProg), groupKeys(newProg), sig.compare, func(sig) *TableDelta { return &d.Groups })
	return d
}

// countInstall is AlignStates and DiffPrograms for an install over a
// program whose field tables have no row, counted instead of merged, with
// newProg's states left dense: every entry and group of newProg is added
// and every one of oldProg removed, but for oldProg's leaf entry — the
// terminal as the leaf's default, when it does something — and group where
// newProg has an equal one. A leaf entry is keyed by its action's content,
// so it is reused where newProg is one terminal doing the same.
func countInstall(oldProg, newProg *compiler.Program) Delta {
	d := Delta{PerTable: make(map[string]TableDelta, len(newProg.Tables)+1)}
	for i, t := range newProg.Tables {
		d.tally(newProg.Fields[i].Name, TableDelta{Added: len(t.Entries)})
	}
	leaf := TableDelta{Added: len(newProg.Leaf.Entries), Removed: len(oldProg.Leaf.Entries)}
	for _, e := range oldProg.Leaf.Entries {
		key := leafKey(oldProg, 0, e)
		if slices.ContainsFunc(newProg.Leaf.Entries, func(f compiler.Entry) bool { return leafKey(newProg, 0, f) == key }) {
			leaf = TableDelta{Added: leaf.Added - 1, Removed: leaf.Removed - 1, Reused: leaf.Reused + 1}
		}
	}
	d.tally("leaf", leaf)
	d.Groups = TableDelta{Added: len(newProg.Groups), Removed: len(oldProg.Groups)}
	for _, g := range oldProg.Groups {
		if slices.ContainsFunc(newProg.Groups, g.Equal) {
			d.Groups = TableDelta{Added: d.Groups.Added - 1, Removed: d.Groups.Removed - 1, Reused: d.Groups.Reused + 1}
		}
	}
	return d
}

// mergeDiff sorts two key lists, drops repeats, and counts the keys only in
// news as added, only in olds as removed, in both as reused, in their tallies.
func mergeDiff[K comparable](olds, news []K, compare func(K, K) int, tally func(K) *TableDelta) {
	slices.SortFunc(olds, compare)
	slices.SortFunc(news, compare)
	olds, news = slices.Compact(olds), slices.Compact(news)
	for len(olds) > 0 || len(news) > 0 {
		switch {
		case len(news) == 0 || (len(olds) > 0 && compare(olds[0], news[0]) < 0):
			tally(olds[0]).Removed++
			olds = olds[1:]
		case len(olds) == 0 || compare(olds[0], news[0]) > 0:
			tally(news[0]).Added++
			news = news[1:]
		default:
			tally(news[0]).Reused++
			olds, news = olds[1:], news[1:]
		}
	}
}

// entryKeys lists the program's table entries, its tables numbered by
// their place in names.
func entryKeys(p *compiler.Program, names []string) []entryKey {
	keys := make([]entryKey, 0, p.EntriesTotal())
	for i, t := range p.Tables {
		id := uint64(slices.Index(names, p.Fields[i].Name)) << 8
		for _, e := range t.Entries {
			to := sig{a: uint64(e.Next)}
			if a, ok := compiler.Decides(e.Next); ok {
				to = actionSig(p.Actions[a])
			}
			keys = append(keys, entryKey{uint64(e.State), id | uint64(e.Kind), e.Lo, e.Hi, to.a, to.b})
		}
	}
	id := uint64(slices.Index(names, "leaf")) << 8
	for _, e := range p.Leaf.Entries {
		keys = append(keys, leafKey(p, id, e))
	}
	return keys
}

// leafKey is a leaf entry's key: its kind and its action's content.
func leafKey(p *compiler.Program, id uint64, e compiler.Entry) entryKey {
	a, _ := compiler.Decides(e.Next)
	act := actionSig(p.Actions[a])
	return entryKey{0, id | uint64(e.Kind), 0, 0, act.a, act.b}
}

// groupKeys is the program's multicast groups, each as the content sum of
// its ports (ActionSet.Sum).
func groupKeys(p *compiler.Program) []sig {
	keys := make([]sig, len(p.Groups))
	for g, ports := range p.Groups {
		keys[g] = actionSig(compiler.ActionSet{Ports: ports})
	}
	return keys
}
