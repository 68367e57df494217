package bdd

import (
	"testing"
	"testing/quick"

	"camus/internal/interval"
)

// TestSingleConjunctionQuick uses testing/quick to verify that a BDD
// built from one conjunction is exactly the conjunction's membership
// predicate, across arbitrary constraint constants.
func TestSingleConjunctionQuick(t *testing.T) {
	const max = 255
	fields := []Field{{Name: "a", Max: max}, {Name: "b", Max: max}}
	f := func(aLo, aHi, bPoint, probeA, probeB uint8) bool {
		lo, hi := uint64(aLo), uint64(aHi)
		if lo > hi {
			lo, hi = hi, lo
		}
		conj := Conj{Payload: 1, Constraints: []Constraint{
			{Field: 0, Set: interval.Range(lo, hi)},
			{Field: 1, Set: interval.Point(uint64(bPoint))},
		}}
		b, sets, err := buildSets(fields, []Conj{conj})
		if err != nil {
			return false
		}
		got := len(sets.SetOf(b.Lookup([]uint64{uint64(probeA), uint64(probeB)}).Class)) == 1
		want := lo <= uint64(probeA) && uint64(probeA) <= hi && uint64(probeB) == uint64(bPoint)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDisjointPayloadUnionQuick verifies the multi-terminal property: two
// rules with disjoint conditions never share a terminal, and overlapping
// equality rules merge payloads.
func TestDisjointPayloadUnionQuick(t *testing.T) {
	const max = 1023
	fields := []Field{{Name: "x", Max: max}}
	f := func(p1, p2, probe uint16) bool {
		v1, v2, pv := uint64(p1)&max, uint64(p2)&max, uint64(probe)&max
		conjs := []Conj{
			{Payload: 10, Constraints: []Constraint{{Field: 0, Set: interval.Point(v1)}}},
			{Payload: 20, Constraints: []Constraint{{Field: 0, Set: interval.Point(v2)}}},
		}
		b, sets, err := buildSets(fields, conjs)
		if err != nil {
			return false
		}
		got := sets.SetOf(b.Lookup([]uint64{pv}).Class)
		want := 0
		if pv == v1 {
			want++
		}
		if pv == v2 {
			want++
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
