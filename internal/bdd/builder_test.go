package bdd

import (
	"fmt"
	"math/rand"
	"testing"

	"camus/internal/interval"
)

// stockPriceFields is the two-field universe the builder tests share.
func stockPriceFields() []Field {
	return []Field{
		{Name: "stock", Max: 1 << 16},
		{Name: "price", Max: 1000},
	}
}

// churnConjs generates n deterministic stock==S && price>P conjunctions.
func churnConjs(n int, seed int64) []Conj {
	r := rand.New(rand.NewSource(seed))
	out := make([]Conj, n)
	for i := range out {
		out[i] = mkConj(i,
			c(0, interval.Point(uint64(r.Intn(50)))),
			c(1, interval.GreaterThan(uint64(10*(1+r.Intn(90))), 1000)),
		)
	}
	return out
}

// requireSameBDD checks that two BDDs are bit-identical: same node and
// terminal counts, same node IDs along every path, and the same payload
// sets on random evaluations.
func requireSameBDD(t *testing.T, want, got *BDD, fields []Field, seed int64) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("node count %d != %d", got.NumNodes(), want.NumNodes())
	}
	if len(want.Terminals()) != len(got.Terminals()) {
		t.Fatalf("terminal count %d != %d", len(got.Terminals()), len(want.Terminals()))
	}
	if (want.Root == nil) != (got.Root == nil) {
		t.Fatalf("root presence differs")
	}
	if want.Root != nil && want.Root.ID != got.Root.ID {
		t.Fatalf("root ID %d != %d", got.Root.ID, want.Root.ID)
	}
	wantNodes, gotNodes := want.Nodes(), got.Nodes()
	for i := range wantNodes {
		w, g := wantNodes[i], gotNodes[i]
		if w.ID != g.ID || w.Field != g.Field || w.IsTerminal() != g.IsTerminal() {
			t.Fatalf("node %d differs: %+v vs %+v", i, w, g)
		}
		if !w.IsTerminal() {
			if w.Set.Key() != g.Set.Key() {
				t.Fatalf("node %d predicate %s != %s", i, g.Set.Key(), w.Set.Key())
			}
			if w.True.ID != g.True.ID || w.False.ID != g.False.ID {
				t.Fatalf("node %d children (%d,%d) != (%d,%d)",
					i, g.True.ID, g.False.ID, w.True.ID, w.False.ID)
			}
		} else if fmt.Sprint(w.Payloads) != fmt.Sprint(g.Payloads) {
			t.Fatalf("terminal %d payloads %v != %v", i, g.Payloads, w.Payloads)
		}
	}
	r := rand.New(rand.NewSource(seed))
	for probe := 0; probe < 200; probe++ {
		vals := make([]uint64, len(fields))
		for f := range vals {
			vals[f] = r.Uint64() % (fields[f].Max + 1)
		}
		if w, g := fmt.Sprint(want.Lookup(vals).Payloads), fmt.Sprint(got.Lookup(vals).Payloads); w != g {
			t.Fatalf("eval(%v) = %s, want %s", vals, g, w)
		}
	}
}

// TestBuilderWarmMatchesCold checks the memoization contract: building the
// same conjunction set through a warm arena (after unrelated builds) yields
// a BDD bit-identical to a cold, from-scratch build.
func TestBuilderWarmMatchesCold(t *testing.T) {
	fields := stockPriceFields()
	a := churnConjs(200, 1)
	b := churnConjs(40, 2)
	for i := range b {
		b[i].Payload += len(a) // distinct payload space
	}

	cold, err := Build(fields, a)
	if err != nil {
		t.Fatal(err)
	}

	bl := NewBuilder()
	// Warm the arena with a superset build, then rebuild the original set.
	if _, err := bl.Build(fields, append(append([]Conj(nil), a...), b...)); err != nil {
		t.Fatal(err)
	}
	warm, err := bl.Build(fields, a)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBDD(t, cold, warm, fields, 77)
}

// TestBuilderReuseAcrossChurn simulates rule churn: repeated builds with
// small deltas must stay correct, keep previously returned BDDs valid, and
// actually reuse the arena (it grows by less than a full rebuild's worth of
// nodes per round).
func TestBuilderReuseAcrossChurn(t *testing.T) {
	fields := stockPriceFields()
	conjs := churnConjs(300, 3)
	bl := NewBuilder()

	first, err := bl.Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	firstNodes := first.NumNodes()
	arenaAfterFirst := bl.ArenaSize()

	r := rand.New(rand.NewSource(4))
	prev := first
	for round := 0; round < 5; round++ {
		// Drop 3 random conjunctions, add 3 new ones.
		for i := 0; i < 3; i++ {
			j := r.Intn(len(conjs))
			conjs = append(conjs[:j], conjs[j+1:]...)
		}
		fresh := churnConjs(3, int64(100+round))
		for i := range fresh {
			fresh[i].Payload = 1000 + 10*round + i
		}
		conjs = append(conjs, fresh...)

		warm, err := bl.Build(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Build(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBDD(t, cold, warm, fields, int64(round))

		// The previously returned BDD must be untouched by the new build.
		if prev.Root == nil || prev.NumNodes() == 0 {
			t.Fatal("earlier BDD invalidated by warm rebuild")
		}
		prev = warm
	}
	// Five churn rounds of 3 conjunctions each must not have rebuilt the
	// world five times over: the arena holds shared sub-BDDs, not copies.
	if grown := bl.ArenaSize() - arenaAfterFirst; grown > 2*firstNodes {
		t.Fatalf("arena grew by %d nodes over 5 small churn rounds (full build is %d): memoization not reusing",
			grown, firstNodes)
	}
}

// TestBuilderResetOnFieldChange checks that a builder silently discards
// its arena when the field universe changes — stale memo hits across
// incompatible field spaces would be unsound.
func TestBuilderResetOnFieldChange(t *testing.T) {
	bl := NewBuilder()
	fieldsA := stockPriceFields()
	if _, err := bl.Build(fieldsA, churnConjs(50, 5)); err != nil {
		t.Fatal(err)
	}
	if bl.ArenaSize() == 0 {
		t.Fatal("arena empty after first build")
	}

	fieldsB := []Field{{Name: "x", Max: 255}}
	conjsB := []Conj{mkConj(0, c(0, interval.Point(7)))}
	warm, err := bl.Build(fieldsB, conjsB)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Build(fieldsB, conjsB)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBDD(t, cold, warm, fieldsB, 9)
}

// TestBuilderExplicitReset checks Reset drops the arena but leaves the
// builder usable.
func TestBuilderExplicitReset(t *testing.T) {
	fields := stockPriceFields()
	conjs := churnConjs(80, 6)
	bl := NewBuilder()
	if _, err := bl.Build(fields, conjs); err != nil {
		t.Fatal(err)
	}
	bl.Reset()
	if bl.ArenaSize() != 0 {
		t.Fatalf("arena size %d after Reset", bl.ArenaSize())
	}
	warm, err := bl.Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBDD(t, cold, warm, fields, 10)
}
