package controlplane

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// The map-based pairing of states and diff this package used until PR 16,
// kept as the oracle the merge implementations are held to.

type oracleKey struct {
	table  string
	state  int
	kind   compiler.EntryKind
	lo, hi uint64
	next   int
	act    string
}

// oracleEntries is the program's entries as a set, each state keyed by
// state(s).
func oracleEntries(p *compiler.Program, state func(int) int) map[oracleKey]bool {
	set := make(map[oracleKey]bool)
	for i, t := range p.Tables {
		for _, e := range t.Entries {
			k := oracleKey{table: p.Fields[i].Name, state: state(e.State), kind: e.Kind, lo: e.Lo, hi: e.Hi}
			if a, ok := compiler.Decides(e.Next); ok {
				k.next, k.act = -1, p.Actions[a].Key()
			} else {
				k.next = state(e.Next)
			}
			set[k] = true
		}
	}
	for _, e := range p.Leaf.Entries {
		a, _ := compiler.Decides(e.Next)
		set[oracleKey{table: "leaf", kind: e.Kind, next: -1, act: p.Actions[a].Key()}] = true
	}
	return set
}

// oracleDiff keys the old program's states by their numbers and the new
// one's by their old twins' (oracleTwins); a new state without a twin gets
// a number no old state has.
func oracleDiff(oldProg, newProg *compiler.Program) Delta {
	var d Delta
	twins := oracleTwins(oldProg, newProg)
	oldSet := oracleEntries(oldProg, func(s int) int { return s })
	newSet := oracleEntries(newProg, func(s int) int {
		if old, ok := twins[s]; ok {
			return old
		}
		return 1<<40 + s
	})
	for k := range newSet {
		if oldSet[k] {
			d.Entries.Reused++
		} else {
			d.Entries.Added++
		}
	}
	for k := range oldSet {
		if !newSet[k] {
			d.Entries.Removed++
		}
	}
	groups := func(p *compiler.Program) map[string]bool {
		set := make(map[string]bool)
		for _, ports := range p.Groups {
			set[fmt.Sprint(ports)] = true
		}
		return set
	}
	oldGroups, newGroups := groups(oldProg), groups(newProg)
	for g := range newGroups {
		if oldGroups[g] {
			d.Groups.Reused++
		} else {
			d.Groups.Added++
		}
	}
	for g := range oldGroups {
		if !newGroups[g] {
			d.Groups.Removed++
		}
	}
	return d
}

// oracleTwins maps each new state that has an old twin to it: the new
// states of one signature, in ascending order, take the old states of that
// signature, smallest first. The new initial state, when it is a state and
// found no twin, takes the old initial state if no other new state did.
func oracleTwins(oldProg, newProg *compiler.Program) map[int]int {
	sigToOld := make(map[[2]uint64][]int)
	for _, s := range oldProg.Signatures {
		sigToOld[s.Sig] = append(sigToOld[s.Sig], s.State)
	}
	for s := range sigToOld {
		sort.Ints(sigToOld[s])
	}
	newSigs := make(map[int][2]uint64)
	var newStates []int
	for _, s := range newProg.Signatures {
		newSigs[s.State] = s.Sig
		newStates = append(newStates, s.State)
	}
	sort.Ints(newStates)
	twins := make(map[int]int)
	taken := make(map[int]bool)
	for _, st := range newStates {
		if olds := sigToOld[newSigs[st]]; len(olds) > 0 {
			twins[st], taken[olds[0]] = olds[0], true
			sigToOld[newSigs[st]] = olds[1:]
		}
	}
	_, isState := newSigs[newProg.InitialState]
	if _, ok := twins[newProg.InitialState]; isState && !ok && !taken[oldProg.InitialState] {
		twins[newProg.InitialState] = oldProg.InitialState
	}
	return twins
}

// diffFixtures are pairs of rule sets an update goes between: the churn
// shapes of the tests beside this one, a change of one leaf action, a change
// of one multicast group, a change of the pipeline's own field list, and
// installs over and onto programs whose rules leave one terminal, the leaf's
// default: a drop, or a forward to a group the new program keeps or not.
func diffFixtures() map[string][2]string {
	stocks := func(n int, prefix string) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "stock == %s%03d && price > %d : fwd(%d)\n", prefix, i%(n/2), 10*(i%7), 1+i%16)
		}
		return b.String()
	}
	base := stocks(200, "S")
	return map[string][2]string{
		"identical":     {base, base},
		"one rule more": {base, base + "stock == XTRA : fwd(3)\n"},
		"one rule less": {base + "stock == XTRA : fwd(3)\n", base},
		"half replaced": {base, stocks(100, "S") + stocks(100, "T")},
		"from nothing":  {"", base},
		"leaf action":   {base + "stock == XTRA : fwd(3)\n", base + "stock == XTRA : fwd(4)\n"},
		"group":         {base + "stock == XTRA : fwd(3,4)\n", base + "stock == XTRA : fwd(3,5)\n"},
		"field list":    {base + "avg(price) > 50 : fwd(1)\n", base + "sum(shares) > 10 : fwd(1)\n"},
		"over a drop":   {"stock == GOOGL : drop()\n", base},
		"over a group":  {"price >= 0 : fwd(3,4)\n", base + "stock == XTRA : fwd(3,4)\n"},
		"terminals":     {"price >= 0 : fwd(3,4)\n", "price >= 0 : fwd(1)\n"},
		"to a terminal": {base, "price >= 0 : fwd(3,4)\n"},
	}
}

// TestMergeDiffEqualsMapOracle: on every fixture, in both directions, the
// merge pairs the new program's states with the old one's as the map oracle
// does, the merge diff's Delta equals the map diff's field for field, and
// neither writes to the programs. The fixtures' bases that are one terminal
// are so.
func TestMergeDiffEqualsMapOracle(t *testing.T) {
	for name, f := range diffFixtures() {
		for _, pair := range [][2]string{f, {f[1], f[0]}} {
			oldProg, newProg := compile(t, pair[0]), compile(t, pair[1])
			oldDump, newDump := oldProg.Dump(), newProg.Dump()
			what := fmt.Sprintf("%s (%d over %d rules)", name, newProg.Stats.Rules, oldProg.Stats.Rules)
			twins, want := AlignStates(oldProg, newProg), oracleTwins(oldProg, newProg)
			if len(twins) != newProg.NumStates() {
				t.Errorf("%s: %d twins for %d states", what, len(twins), newProg.NumStates())
				continue
			}
			for s, old := range twins {
				if w, ok := want[s]; (old >= 0) != ok || ok && old != w {
					t.Errorf("%s: state %d pairs with %d, the map oracle's twin is %d (has one: %v)", what, s, old, w, ok)
				}
			}
			got, wantDelta := DiffPrograms(oldProg, newProg), oracleDiff(oldProg, newProg)
			if got != wantDelta {
				t.Errorf("%s:\n merge %s\n maps  %s", what, got, wantDelta)
			}
			if name != "identical" && got.Writes() == 0 {
				t.Errorf("%s: no writes", what)
			}
			if oldProg.Dump() != oldDump || newProg.Dump() != newDump {
				t.Errorf("%s: aligning and diffing wrote to a program", what)
			}
		}
	}
	for _, base := range []string{"", "stock == GOOGL : drop()\n", "price >= 0 : fwd(3,4)\n"} {
		if n := compile(t, base).Stats.BDDNodes; n != 1 {
			t.Errorf("%q compiles to %d nodes, not one terminal", base, n)
		}
	}
}

// TestUpdateInstallsTheCompiledProgram: on every fixture, an update through
// the Controller leaves the device running the very program it was given,
// with the tables, initial state and signatures it was compiled with: an
// install writes nothing into a program.
func TestUpdateInstallsTheCompiledProgram(t *testing.T) {
	for name, f := range diffFixtures() {
		sw, err := pipeline.New(compile(t, f[0]), pipeline.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		prog := compile(t, f[1])
		dump, initial, sigs := prog.Dump(), prog.InitialState, slices.Clone(prog.Signatures)
		if _, err := NewController(sw).Update(context.Background(), prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sw.Program() != prog {
			t.Errorf("%s: the device runs another program than the one installed", name)
		}
		if prog.Dump() != dump || prog.InitialState != initial || !slices.Equal(prog.Signatures, sigs) {
			t.Errorf("%s: installing the program renumbered it", name)
		}
	}
}

// TestDiffAllocatesNoMaps: what DiffPrograms allocates is its table names,
// its twin list and its key lists — a count that does not move with the
// number of entries, as a hash set per program did.
func TestDiffAllocatesNoMaps(t *testing.T) {
	const bound = 8
	for _, n := range []int{200, 2000} {
		var a, b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&a, "stock == S%03d && price > %d : fwd(%d)\n", i%100, 10*(i%90), 1+i%16)
			fmt.Fprintf(&b, "stock == S%03d && price > %d : fwd(%d)\n", i%100, 10*(i%90), 1+(i+i/97)%16)
		}
		oldProg, newProg := compile(t, a.String()), compile(t, b.String())
		var d Delta
		allocs := testing.AllocsPerRun(5, func() { d = DiffPrograms(oldProg, newProg) })
		t.Logf("%d rules, %d entries: %.0f allocations", n, newProg.EntriesTotal(), allocs)
		if allocs > bound {
			t.Errorf("%d rules, %d entries: DiffPrograms allocates %.0f objects, bound %d", n, newProg.EntriesTotal(), allocs, bound)
		}
		if d != oracleDiff(oldProg, newProg) || d.Writes() == 0 {
			t.Errorf("%d rules: merge diff %s, map diff %s", n, d, oracleDiff(oldProg, newProg))
		}
	}
}

// TestStateNumbersStayBounded: a switch that alternates between two rule
// sets through its Controller runs, after every update, no state number as
// high as the installed program's own state count, however many updates it
// takes.
func TestStateNumbersStayBounded(t *testing.T) {
	sets := [2]string{
		"stock == GOOGL && price > 10 : fwd(1)\nstock == AAPL && price > 20 : fwd(2)\nstock == MSFT && shares > 5 : fwd(3)\n",
		"stock == GOOGL && price > 15 : fwd(1)\nstock == AAPL && shares > 20 : fwd(2)\nstock == IBM && price > 5 : fwd(3)\n",
	}
	sw, err := pipeline.New(compile(t, ""), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl := NewController(sw)
	largest := func(p *compiler.Program) int {
		top := p.InitialState
		for _, s := range p.Signatures {
			top = max(top, s.State)
		}
		for _, tb := range p.Tables {
			for _, e := range tb.Entries {
				top = max(top, e.State)
				if _, ok := compiler.Decides(e.Next); !ok {
					top = max(top, e.Next)
				}
			}
		}
		return top
	}
	for i := range 200 {
		if _, err := ctl.Update(context.Background(), compile(t, sets[i%2])); err != nil {
			t.Fatal(err)
		}
		if p := ctl.Program(); largest(p) >= p.NumStates() {
			t.Fatalf("update %d: the device runs state %d of a %d-state program", i, largest(p), p.NumStates())
		}
	}
}

// BenchmarkDiffFromEmpty is the first install's diff: the program every
// switch starts on, one terminal, against subs-churn's 20k Fig. 5c rules
// over 200 hosts.
func BenchmarkDiffFromEmpty(b *testing.B) {
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1})
	var src strings.Builder
	for _, r := range rules {
		src.WriteString(r.String() + "\n")
	}
	oldProg, newProg := compile(b, ""), compile(b, src.String())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffPrograms(oldProg, newProg)
	}
}
