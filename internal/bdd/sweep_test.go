package bdd

import (
	"testing"

	"camus/internal/interval"
)

// TestSweepScalesWithCells is the scaling gate of the cold build, a count
// and not a timing: a field visit costs its sweep events, the survivors it
// lists and the words of the cell sets it cuts — within conjunctions +
// Σ survivors + 4·cells·words — where the per-predicate chain filtered every
// class at every link, 16M class steps on either shape here.
func TestSweepScalesWithCells(t *testing.T) {
	const n = 4000
	fields := []Field{{Name: "stock", Max: 1 << 16}, {Name: "price", Max: 1 << 32}}
	words := func(cells int) int { return (cells + 63) / 64 }
	for _, tc := range []struct {
		name      string
		conj      func(i int) Conj
		survivors int // summed over the cells of every visit
		cellWords int // cells·words, summed over the visits
	}{
		{
			// Fig. 5c's shape: the cell above the i-th threshold keeps i rules.
			name: "one symbol, distinct price thresholds",
			conj: func(i int) Conj {
				return mkConj(i, c(0, interval.Point(7)), c(1, interval.GreaterThan(uint64(10*(i+1)), 1<<32)))
			},
			survivors: n + n*(n+1)/2,
			cellWords: 3*words(3) + (n+1)*words(n+1),
		},
		{
			name:      "distinct symbols",
			conj:      func(i int) Conj { return mkConj(i, c(0, interval.Point(uint64(3*i+1)))) },
			survivors: n,
			cellWords: (2*n + 1) * words(2*n+1),
		},
	} {
		conjs := make([]Conj, n)
		for i := range conjs {
			conjs[i] = tc.conj(i)
		}
		b, alive, sum, err := NewBuilder().begin(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.finish(b.visit(0, alive, sum)); len(got.Terminals()) != n+1 {
			t.Errorf("%s: %d terminals, want %d", tc.name, len(got.Terminals()), n+1)
		}
		if budget := n + tc.survivors + 4*tc.cellWords; b.steps > budget {
			t.Errorf("%s: %d steps building %d conjunctions, budget %d", tc.name, b.steps, n, budget)
		} else {
			t.Logf("%s: %d steps, budget %d", tc.name, b.steps, budget)
		}
	}
}
