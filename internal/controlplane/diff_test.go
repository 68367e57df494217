package controlplane

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
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
			set[oracleKey{table: p.Fields[i].Name, state: e.State, kind: e.Kind, lo: e.Lo, hi: e.Hi, next: e.Next}] = true
		}
	}
	for _, e := range p.Leaf.Entries {
		set[oracleKey{table: "leaf", state: e.State, kind: e.Kind, next: -1, act: p.Actions[e.Next].Key()}] = true
	}
	return set
}

func oracleDiff(oldProg, newProg *compiler.Program) Delta {
	d := Delta{PerTable: make(map[string]TableDelta)}
	oldSet, newSet := oracleEntries(oldProg), oracleEntries(newProg)
	for k := range newSet {
		td := d.PerTable[k.table]
		if oldSet[k] {
			td.Reused++
			d.Entries.Reused++
		} else {
			td.Added++
			d.Entries.Added++
		}
		d.PerTable[k.table] = td
	}
	for k := range oldSet {
		if !newSet[k] {
			td := d.PerTable[k.table]
			td.Removed++
			d.PerTable[k.table] = td
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
	sigsOf := func(p *compiler.Program) map[int]sig {
		out := make(map[int]sig)
		for _, s := range stateSignatures(p) {
			out[s.state] = s.sig
		}
		return out
	}
	oldSigs, newSigs := sigsOf(oldProg), sigsOf(newProg)
	sigToOld := make(map[sig][]int)
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
	next := 0
	for st := range oldSigs {
		next = max(next, st+1)
	}
	for _, st := range newStates {
		next = max(next, st+1)
	}
	for _, st := range newStates {
		if _, ok := mapping[st]; !ok {
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
// of one multicast group, and a change of the pipeline's own field list.
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
	}
}

// TestMergeDiffEqualsMapOracle: on every fixture the merge-based alignment
// numbers the new program's states as the map-based one did, and the merge
// diff's Delta equals the map diff's field for field.
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
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n merge %s %v\n maps  %s %v", name, got, got.PerTable, want, want.PerTable)
		}
		if name != "identical" && got.Writes() == 0 {
			t.Errorf("%s: no writes", name)
		}
	}
}

// TestCountedInstallEqualsDiff: an install over a program with no rules —
// or whose rules leave one terminal, a forward to a group among them — is
// counted, not aligned and merged, and the count is the Delta alignment and
// the merge diff give, field for field, onto every fixture's programs and
// onto programs that keep the old terminal's action or group or do not.
// Through a Controller the device writes counted are the same.
func TestCountedInstallEqualsDiff(t *testing.T) {
	olds := []string{"", "stock == GOOGL : drop()\n", "price >= 0 : fwd(3,4)\n"}
	news := []string{"", "stock == XTRA : fwd(3,4)\n", "price >= 0 : fwd(1)\n", "price >= 0 : fwd(3,4)\n"}
	for _, f := range diffFixtures() {
		news = append(news, f[1])
	}
	for _, o := range olds {
		for _, n := range news {
			oldProg := compile(t, o)
			if !oldProg.BDD.Root.IsTerminal() {
				t.Fatalf("%q compiles to more than a terminal", o)
			}
			got := countInstall(oldProg, compile(t, n))
			newProg := compile(t, n)
			AlignStates(oldProg, newProg)
			if want := DiffPrograms(oldProg, newProg); !reflect.DeepEqual(got, want) {
				t.Errorf("%q over %q: counted %s %v, diffed %s %v", n, o, got, got.PerTable, want, want.PerTable)
			}
		}
	}

	sw, err := pipeline.New(compile(t, ""), pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctl, tel := NewController(sw), telemetry.New()
	ctl.SetTelemetry(tel)
	prog := compile(t, diffFixtures()["from nothing"][1])
	twin := compile(t, diffFixtures()["from nothing"][1])
	AlignStates(compile(t, ""), twin)
	want := DiffPrograms(compile(t, ""), twin)
	d, err := ctl.Install(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if writes := tel.Reg().Counter("camus_controlplane_device_writes_total").Load(); d.Writes() != want.Writes() || writes != uint64(want.Writes()) {
		t.Errorf("first install: %d writes, %d counted on the device; the diff has %d", d.Writes(), writes, want.Writes())
	}
}

// TestDiffAllocatesNoMaps: what DiffPrograms allocates is its two key lists
// and a few fixed-size tallies — a count that does not move with the number
// of entries, as a hash set per program did.
func TestDiffAllocatesNoMaps(t *testing.T) {
	const bound = 16
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
		if !reflect.DeepEqual(d, oracleDiff(oldProg, newProg)) || d.Writes() == 0 {
			t.Errorf("%d rules: merge diff %s, map diff %s", n, d, oracleDiff(oldProg, newProg))
		}
	}
}
