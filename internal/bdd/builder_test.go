package bdd

import (
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

// TestBuilderWarmMatchesCold: a build whose classifier has served an
// unrelated superset build first yields a BDD bit-identical to one on a
// fresh classifier. Every build has its own arena; what it shares with
// earlier builds is the classifier, which each leaves holding nothing.
func TestBuilderWarmMatchesCold(t *testing.T) {
	fields := stockPriceFields()
	a := churnConjs(200, 1)
	b := churnConjs(40, 2)
	for i := range b {
		b[i].Payload += len(a) // distinct payload space
	}

	cold, coldSets, err := buildSets(fields, a)
	if err != nil {
		t.Fatal(err)
	}

	sets := NewPayloadSets()
	if _, err := BuildClasses(fields, append(append([]Conj(nil), a...), b...), sets, Sizes{}); err != nil {
		t.Fatal(err)
	}
	warm, err := BuildClasses(fields, a, sets, Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDiagram(t, cold, warm, coldSets, sets)
}

// TestBuilderWarmLabelsAsCold: a node is labelled by the first predicate its
// build meets with its set. A build after one that met another predicate
// with the same set first labels its node as a cold build would.
func TestBuilderWarmLabelsAsCold(t *testing.T) {
	fields := stockPriceFields()
	conj := func(label string) Conj {
		return mkConj(0, c(0, interval.Point(7)), Constraint{Field: 1, Set: interval.GreaterThan(9, 1000), Label: Text(label)})
	}
	gt, ge := conj("price > 9"), conj("price >= 10")
	sets := NewPayloadSets()
	if _, err := BuildClasses(fields, []Conj{gt, ge}, sets, Sizes{}); err != nil {
		t.Fatal(err)
	}
	warm, err := BuildClasses(fields, []Conj{ge}, sets, Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldSets, err := buildSets(fields, []Conj{ge})
	if err != nil {
		t.Fatal(err)
	}
	requireSameDiagram(t, cold, warm, coldSets, sets)
}

// TestBuilderReuseAcrossChurn simulates rule churn: repeated builds with
// small deltas on one classifier must equal cold builds, and leave every
// diagram returned earlier as it was — its node IDs dense and in place,
// though finish numbers each build's nodes where they lie.
func TestBuilderReuseAcrossChurn(t *testing.T) {
	fields := stockPriceFields()
	conjs := churnConjs(300, 3)
	sets := NewPayloadSets()

	first, err := BuildClasses(fields, conjs, sets, Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	var earlier []*BDD
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

		warm, err := BuildClasses(fields, conjs, sets, Sizes{})
		if err != nil {
			t.Fatal(err)
		}
		cold, coldSets, err := buildSets(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDiagram(t, cold, warm, coldSets, sets)
		earlier = append(earlier, prev)
		prev = warm
	}
	for i, b := range earlier {
		for id, n := range b.Nodes() {
			if n.ID != id || b.Root != b.Nodes()[len(b.Nodes())-1] {
				t.Fatalf("diagram %d: node %d carries ID %d after later builds", i, id, n.ID)
			}
		}
	}
}

// TestBuilderResetOnFieldChange: builds over different field universes on
// one classifier are each what a cold build over their own fields is —
// nothing keyed to one field list reaches a build over another.
func TestBuilderResetOnFieldChange(t *testing.T) {
	sets := NewPayloadSets()
	fieldsA := stockPriceFields()
	if _, err := BuildClasses(fieldsA, churnConjs(50, 5), sets, Sizes{}); err != nil {
		t.Fatal(err)
	}

	fieldsB := []Field{{Name: "x", Max: 255}}
	conjsB := []Conj{mkConj(0, c(0, interval.Point(7)))}
	warm, err := BuildClasses(fieldsB, conjsB, sets, Sizes{})
	if err != nil {
		t.Fatal(err)
	}
	cold, coldSets, err := buildSets(fieldsB, conjsB)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDiagram(t, cold, warm, coldSets, sets)
}
