package controlplane

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// The map-based alignment and diff this package used until PR 16, kept as
// the oracle the merge implementations are held to.

type oracleKey struct {
	table  string
	state  int
	kind   compiler.EntryKind
	lo, hi uint64
	next   int
	act    string
}

func oracleEntries(p *compiler.Program) map[oracleKey]bool {
	set := make(map[oracleKey]bool)
	for i, t := range p.Tables {
		for _, e := range t.Entries {
			k := oracleKey{table: p.Fields[i].Name, state: e.State, kind: e.Kind, lo: e.Lo, hi: e.Hi, next: e.Next}
			if a, ok := compiler.Decides(e.Next); ok {
				k.next, k.act = -1, p.Actions[a].Key()
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

func oracleDiff(oldProg, newProg *compiler.Program) Delta {
	var d Delta
	oldSet, newSet := oracleEntries(oldProg), oracleEntries(newProg)
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

func oracleAlign(oldProg, newProg *compiler.Program) {
	sigsOf := func(p *compiler.Program) map[int][2]uint64 {
		out := make(map[int][2]uint64)
		for _, s := range p.Signatures {
			out[s.State] = s.Sig
		}
		return out
	}
	oldSigs, newSigs := sigsOf(oldProg), sigsOf(newProg)
	sigToOld := make(map[[2]uint64][]int)
	for st, s := range oldSigs {
		sigToOld[s] = append(sigToOld[s], st)
	}
	for s := range sigToOld {
		sort.Ints(sigToOld[s])
	}
	var newStates []int
	for st := range newSigs {
		newStates = append(newStates, st)
	}
	sort.Ints(newStates)
	mapping := make(map[int]int)
	assignedOld := make(map[int]bool)
	for _, st := range newStates {
		if twins := sigToOld[newSigs[st]]; len(twins) > 0 {
			mapping[st] = twins[0]
			assignedOld[twins[0]] = true
			sigToOld[newSigs[st]] = twins[1:]
		}
	}
	if _, ok := mapping[newProg.InitialState]; !ok && !assignedOld[oldProg.InitialState] {
		mapping[newProg.InitialState] = oldProg.InitialState
	}
	used := map[int]bool{oldProg.InitialState: true}
	for st := range oldSigs {
		used[st] = true
	}
	next := 0
	for _, st := range newStates {
		if _, ok := mapping[st]; !ok {
			for used[next] {
				next++
			}
			mapping[st] = next
			next++
		}
	}
	newProg.RemapStates(func(st int) int {
		if to, ok := mapping[st]; ok {
			return to
		}
		return st
	})
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

// TestMergeDiffEqualsMapOracle: on every fixture the merge-based alignment
// numbers the new program's states as the map-based one does, and the merge
// diff's Delta equals the map diff's field for field. The fixtures' bases
// that are one terminal are so.
func TestMergeDiffEqualsMapOracle(t *testing.T) {
	for name, f := range diffFixtures() {
		oldProg, newProg, twin := compile(t, f[0]), compile(t, f[1]), compile(t, f[1])
		AlignStates(oldProg, newProg)
		oracleAlign(oldProg, twin)
		if got, want := newProg.Dump(), twin.Dump(); got != want || newProg.InitialState != twin.InitialState {
			t.Errorf("%s: the merge alignment numbers states differently from the map alignment", name)
			continue
		}
		got, want := DiffPrograms(oldProg, newProg), oracleDiff(oldProg, newProg)
		if got != want {
			t.Errorf("%s:\n merge %s\n maps  %s", name, got, want)
		}
		if name != "identical" && got.Writes() == 0 {
			t.Errorf("%s: no writes", name)
		}
	}
	for _, base := range []string{"", "stock == GOOGL : drop()\n", "price >= 0 : fwd(3,4)\n"} {
		if n := compile(t, base).Stats.BDDNodes; n != 1 {
			t.Errorf("%q compiles to %d nodes, not one terminal", base, n)
		}
	}
}

// TestDiffAllocatesNoMaps: what DiffPrograms allocates is its table names
// and its key lists — a count that does not move with the number
// of entries, as a hash set per program did.
func TestDiffAllocatesNoMaps(t *testing.T) {
	const bound = 8
	for _, n := range []int{200, 2000} {
		var a, b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&a, "stock == S%03d && price > %d : fwd(%d)\n", i%100, 10*(i%90), 1+i%16)
			fmt.Fprintf(&b, "stock == S%03d && price > %d : fwd(%d)\n", i%100, 10*(i%90), 1+(i+i/97)%16)
		}
		oldProg, newProg := compile(t, a.String()), compile(t, b.String())
		AlignStates(oldProg, newProg)
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
// sets through its Controller runs no state number as high as the two
// programs' state counts together, however many updates it takes. Fresh
// states take the smallest numbers the running program leaves free.
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
		return top
	}
	states := [2]int{compile(t, sets[0]).NumStates(), compile(t, sets[1]).NumStates()}
	top := 0
	for i := range 200 {
		if _, err := ctl.Install(context.Background(), compile(t, sets[i%2])); err != nil {
			t.Fatal(err)
		}
		top = max(top, largest(ctl.Program()))
	}
	t.Logf("%d and %d states: the largest state number is %d", states[0], states[1], top)
	if top >= states[0]+states[1] {
		t.Fatalf("after 200 updates between %d and %d states the largest state number is %d", states[0], states[1], top)
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
	AlignStates(oldProg, newProg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DiffPrograms(oldProg, newProg)
	}
}
