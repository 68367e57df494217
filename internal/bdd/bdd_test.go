package bdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"camus/internal/interval"
)

// mkConj builds a conjunction from (field, set) pairs.
func mkConj(payload int, cons ...Constraint) Conj {
	return Conj{Payload: payload, Constraints: cons}
}

func c(f int, s interval.Set) Constraint { return Constraint{Field: f, Set: s} }

// evalConjs is the reference semantics: payloads of conjunctions whose
// every constraint holds.
func evalConjs(conjs []Conj, values []uint64) []int {
	seen := map[int]bool{}
	var out []int
	for _, cj := range conjs {
		ok := true
		for _, con := range cj.Constraints {
			if !con.Set.Contains(values[con.Field]) {
				ok = false
				break
			}
		}
		if ok && !seen[cj.Payload] {
			seen[cj.Payload] = true
			out = append(out, cj.Payload)
		}
	}
	// Match BDD terminal ordering (sorted).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if out == nil {
		out = []int{}
	}
	return out
}

func TestBuildEmptyRuleSet(t *testing.T) {
	fields := []Field{{Name: "x", Max: 255}}
	b, err := Build(fields, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Root.IsTerminal() || len(b.Root.Payloads) != 0 {
		t.Fatalf("empty rule set should produce the empty terminal, got %+v", b.Root)
	}
}

func TestBuildSingleEquality(t *testing.T) {
	fields := []Field{{Name: "stock", Max: ^uint64(0)}}
	conjs := []Conj{mkConj(0, c(0, interval.Point(42)))}
	b, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Root.IsTerminal() {
		t.Fatal("root should test the predicate")
	}
	if got := b.Lookup([]uint64{42}).Payloads; len(got) != 1 || got[0] != 0 {
		t.Fatalf("Eval(42) = %v", got)
	}
	if got := b.Lookup([]uint64{41}).Payloads; len(got) != 0 {
		t.Fatalf("Eval(41) = %v", got)
	}
}

func TestReductionSharedTerminals(t *testing.T) {
	// Two disjoint conditions with the same payload must share a terminal.
	fields := []Field{{Name: "x", Max: 1000}}
	conjs := []Conj{
		mkConj(7, c(0, interval.Point(1))),
		mkConj(7, c(0, interval.Point(2))),
	}
	b, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Terminals()) != 2 { // {7} and {}
		t.Fatalf("want 2 terminals, got %d", len(b.Terminals()))
	}
}

func TestReductionImpliedPredicateNotMaterialized(t *testing.T) {
	// price > 100 && price > 50: the second predicate is implied by the
	// first on the true branch and must not appear twice on a path.
	fields := []Field{{Name: "price", Max: 1000}}
	conjs := []Conj{
		mkConj(0, c(0, interval.GreaterThan(100, 1000)), c(0, interval.GreaterThan(50, 1000))),
	}
	b, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: 1 or 2 internal nodes; a path can test at most the two
	// distinct thresholds once each.
	if b.NumInternal() > 2 {
		t.Fatalf("implied predicates materialized: %d internal nodes", b.NumInternal())
	}
	if got := b.Lookup([]uint64{150}).Payloads; len(got) != 1 {
		t.Fatalf("Eval(150) = %v", got)
	}
	if got := b.Lookup([]uint64{75}).Payloads; len(got) != 0 {
		t.Fatalf("Eval(75) = %v (75 is not > 100)", got)
	}
}

func TestUnsatisfiableConjunctionDropped(t *testing.T) {
	fields := []Field{{Name: "x", Max: 100}}
	conjs := []Conj{
		mkConj(0, c(0, interval.GreaterThan(80, 100)), c(0, interval.LessThan(20))),
		mkConj(1, c(0, interval.Point(5))),
	}
	b, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 5, 19, 50, 81, 100} {
		got := b.Lookup([]uint64{v}).Payloads
		for _, p := range got {
			if p == 0 {
				t.Fatalf("unsatisfiable conjunction matched value %d", v)
			}
		}
	}
}

func TestConstraintOutOfRangeField(t *testing.T) {
	_, err := Build([]Field{{Name: "x", Max: 10}}, []Conj{mkConj(0, c(3, interval.Point(1)))})
	if err == nil {
		t.Fatal("expected error for out-of-range field index")
	}
}

func TestOrderedness(t *testing.T) {
	// On every root-to-terminal path, field indices must be nondecreasing.
	fields := []Field{{Name: "a", Max: 255}, {Name: "b", Max: 255}, {Name: "c", Max: 255}}
	r := rand.New(rand.NewSource(5))
	conjs := randomConjs(r, fields, 20, 3)
	b, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *Node, minField int)
	walk = func(n *Node, minField int) {
		if n.IsTerminal() {
			return
		}
		if n.Field < minField {
			t.Fatalf("field order violated: field %d after %d", n.Field, minField)
		}
		walk(n.True, n.Field)
		walk(n.False, n.Field)
	}
	walk(b.Root, 0)
}

// TestPathRangesPartitionDomain verifies the Algorithm-1 precondition: the
// value ranges accumulated along the paths leaving a component entry node
// are pairwise disjoint and together cover the whole field domain, and the
// number of paths is bounded by the number of cells the field's predicates
// cut the domain into (which yields the paper's quadratic bound on
// In→Out paths).
func TestPathRangesPartitionDomain(t *testing.T) {
	fields := []Field{{Name: "a", Max: 255}, {Name: "b", Max: 255}}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		conjs := randomConjs(r, fields, 12, 2)
		b, err := Build(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		// Entry nodes: root + targets of cross-field edges.
		entry := map[int]bool{b.Root.ID: true}
		for _, n := range b.Nodes() {
			if n.IsTerminal() {
				continue
			}
			for _, ch := range []*Node{n.True, n.False} {
				if ch.Field != n.Field {
					entry[ch.ID] = true
				}
			}
		}
		// Count the distinct predicate sets per field for the cell bound.
		predSets := map[int]map[string]bool{}
		for _, n := range b.Nodes() {
			if n.IsTerminal() {
				continue
			}
			if predSets[n.Field] == nil {
				predSets[n.Field] = map[string]bool{}
			}
			predSets[n.Field][n.Set.Key()] = true
		}
		for _, u := range b.Nodes() {
			if u.IsTerminal() || !entry[u.ID] {
				continue
			}
			max := fields[u.Field].Max
			var ranges []interval.Set
			var walk func(n *Node, acc interval.Set)
			walk = func(n *Node, acc interval.Set) {
				if acc.IsEmpty() {
					return
				}
				if n.Field != u.Field {
					ranges = append(ranges, acc)
					return
				}
				walk(n.True, acc.Intersect(n.Set))
				walk(n.False, acc.Minus(n.Set, max))
			}
			full := interval.Full(max)
			walk(u.True, full.Intersect(u.Set))
			walk(u.False, full.Minus(u.Set, max))

			union := interval.Empty()
			for i, ri := range ranges {
				if ri.Overlaps(union) {
					t.Fatalf("trial %d: node %d: path range %d overlaps earlier ranges", trial, u.ID, i)
				}
				union = union.Union(ri)
			}
			if !union.IsFull(max) {
				t.Fatalf("trial %d: node %d: path ranges do not cover domain: %s", trial, u.ID, union)
			}
			// Each predicate contributes at most two boundaries, so the
			// partition has at most 2*preds+1 cells; disjoint path ranges
			// cannot outnumber cells.
			if bound := 2*len(predSets[u.Field]) + 1; len(ranges) > bound {
				t.Fatalf("trial %d: node %d: %d paths exceeds cell bound %d", trial, u.ID, len(ranges), bound)
			}
		}
	}
}

func randomConjs(r *rand.Rand, fields []Field, n, maxAtoms int) []Conj {
	var conjs []Conj
	for i := 0; i < n; i++ {
		cj := Conj{Payload: i}
		na := 1 + r.Intn(maxAtoms)
		for a := 0; a < na; a++ {
			f := r.Intn(len(fields))
			max := fields[f].Max
			var set interval.Set
			switch r.Intn(4) {
			case 0:
				set = interval.Point(r.Uint64() % (max + 1))
			case 1:
				set = interval.GreaterThan(r.Uint64()%(max+1), max)
			case 2:
				set = interval.LessThan(r.Uint64() % (max + 1))
			default:
				set = interval.NotEqual(r.Uint64()%(max+1), max)
			}
			cj.Constraints = append(cj.Constraints, Constraint{Field: f, Set: set})
		}
		conjs = append(conjs, cj)
	}
	return conjs
}

// TestEvalMatchesReferenceSemantics is the core differential test: the
// BDD must agree with direct rule evaluation on random workloads.
func TestEvalMatchesReferenceSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	fields := []Field{{Name: "a", Max: 63}, {Name: "b", Max: 63}, {Name: "c", Max: 63}}
	for trial := 0; trial < 100; trial++ {
		conjs := randomConjs(r, fields, 15, 3)
		b, err := Build(fields, conjs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for probe := 0; probe < 200; probe++ {
			values := []uint64{r.Uint64() % 64, r.Uint64() % 64, r.Uint64() % 64}
			want := evalConjs(conjs, values)
			got := b.Lookup(values).Payloads
			if got == nil {
				got = []int{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Eval(%v) = %v, want %v", trial, values, got, want)
			}
		}
	}
}

func TestHashConsingDeterminism(t *testing.T) {
	fields := []Field{{Name: "a", Max: 255}, {Name: "b", Max: 255}}
	r := rand.New(rand.NewSource(3))
	conjs := randomConjs(r, fields, 10, 2)
	b1, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	if b1.NumNodes() != b2.NumNodes() {
		t.Fatalf("same input, different node counts: %d vs %d", b1.NumNodes(), b2.NumNodes())
	}
	if b1.Dot(payloadLabel) != b2.Dot(payloadLabel) {
		t.Fatal("same input, different structure")
	}
}

func payloadLabel(n *Node) string { return fmt.Sprint(n.Payloads) }

func TestDotOutput(t *testing.T) {
	fields := []Field{{Name: "x", Max: 255}}
	b, err := Build(fields, []Conj{mkConj(0, c(0, interval.Point(9)))})
	if err != nil {
		t.Fatal(err)
	}
	dot := b.Dot(payloadLabel)
	if len(dot) == 0 || dot[:7] != "digraph" {
		t.Fatalf("bad dot output: %q", dot)
	}
}

// TestPaperFigure3 builds the BDD for a 3-rule workload shaped like the
// paper's Figure 3 (two fields: shares then stock; overlapping rules merge
// their forwarding actions in one terminal).
func TestPaperFigure3(t *testing.T) {
	const (
		sharesMax = (1 << 32) - 1
		stockMax  = ^uint64(0)
	)
	fields := []Field{{Name: "shares", Max: sharesMax}, {Name: "stock", Max: stockMax}}
	aapl, msft := uint64(0x4141504c20202020), uint64(0x4d53465420202020)
	// r0: shares < 60 && stock == AAPL  : fwd(3)   (payload 0)
	// r1: shares < 60 && stock == AAPL  : fwd(1,2) (payload 1; overlaps r0)
	// r2: shares > 100 && stock == MSFT : fwd(1)   (payload 2)
	conjs := []Conj{
		mkConj(0, c(0, interval.LessThan(60)), c(1, interval.Point(aapl))),
		mkConj(1, c(0, interval.LessThan(60)), c(1, interval.Point(aapl))),
		mkConj(2, c(0, interval.GreaterThan(100, sharesMax)), c(1, interval.Point(msft))),
	}
	b, err := Build(fields, conjs)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Lookup([]uint64{59, aapl}).Payloads; !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("AAPL @59 shares: %v", got)
	}
	if got := b.Lookup([]uint64{101, msft}).Payloads; !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("MSFT @101 shares: %v", got)
	}
	if got := b.Lookup([]uint64{80, aapl}).Payloads; len(got) != 0 {
		t.Fatalf("AAPL @80 shares should match nothing: %v", got)
	}
	// Root must test shares (field 0): ordered BDD.
	if b.Root.Field != 0 {
		t.Fatalf("root tests field %d, want 0", b.Root.Field)
	}
}
