package bdd

import (
	"testing"

	"camus/internal/interval"
)

// TestSweepScalesWithCells is the scaling gate of the cold build, a count
// and not a timing: a field visit costs its sweep events, the open
// conjunctions it lists, the conjunctions it settles and unsettles and the
// words of the cell sets it cuts — within conjunctions + 4·cells·words —
// where the per-predicate chain filtered every class at every link, 16M
// class steps on either shape here, and listing every survivor at every cell
// cost Σ survivors, 8M on the first. The classifier is asked at most once a
// cell, and settles each conjunction once.
func TestSweepScalesWithCells(t *testing.T) {
	const n = 4000
	fields := []Field{{Name: "stock", Max: 1 << 16}, {Name: "price", Max: 1 << 32}}
	words := func(cells int) int { return (cells + 63) / 64 }
	for _, tc := range []struct {
		name      string
		conj      func(i int) Conj
		cells     int // summed over the visits
		cellWords int // cells·words, summed over the visits
	}{
		{
			// Fig. 5c's shape: the cell above the i-th threshold keeps i rules.
			name: "one symbol, distinct price thresholds",
			conj: func(i int) Conj {
				return mkConj(i, c(0, interval.Point(7)), c(1, interval.GreaterThan(uint64(10*(i+1)), 1<<32)))
			},
			cells:     3 + n + 1,
			cellWords: 3*words(3) + (n+1)*words(n+1),
		},
		{
			name:      "distinct symbols",
			conj:      func(i int) Conj { return mkConj(i, c(0, interval.Point(uint64(3*i+1)))) },
			cells:     2*n + 1,
			cellWords: (2*n + 1) * words(2*n+1),
		},
	} {
		conjs := make([]Conj, n)
		for i := range conjs {
			conjs[i] = tc.conj(i)
		}
		// Every payload set on either shape has a class of its own.
		cl := classifierOf(t, func(payloads []int) (int, bool) {
			if len(payloads) == 0 {
				return 0, false
			}
			return len(payloads)*(n+1) + payloads[0] + 1, true
		})
		b, sum, err := NewClassBuilder(cl).begin(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.finish(b.run(sum)); len(got.Terminals()) != n+1 {
			t.Errorf("%s: %d terminals, want %d", tc.name, len(got.Terminals()), n+1)
		}
		cl.requireEmpty()
		if budget := n + 4*tc.cellWords; b.steps > budget {
			t.Errorf("%s: %d steps building %d conjunctions, budget %d", tc.name, b.steps, n, budget)
		} else {
			t.Logf("%s: %d steps, budget %d", tc.name, b.steps, budget)
		}
		if cl.adds+cl.removes > 2*n {
			t.Errorf("%s: %d adds and %d removes for %d conjunctions", tc.name, cl.adds, cl.removes, n)
		}
		if cl.classes > tc.cells {
			t.Errorf("%s: %d classes asked for over %d cells", tc.name, cl.classes, tc.cells)
		}
	}
}
