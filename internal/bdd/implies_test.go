package bdd

import (
	"math/rand"
	"testing"

	"camus/internal/interval"
)

// bruteImplies enumerates the full (small) packet space and reports the
// first packet a matches but b does not.
func bruteImplies(a, b *BDD) (bool, []uint64) {
	fields := a.Fields
	values := make([]uint64, len(fields))
	var walk func(f int) []uint64
	walk = func(f int) []uint64 {
		if f == len(fields) {
			if a.Lookup(values).Matches && !b.Lookup(values).Matches {
				return append([]uint64(nil), values...)
			}
			return nil
		}
		for v := uint64(0); v <= fields[f].Max; v++ {
			values[f] = v
			if w := walk(f + 1); w != nil {
				return w
			}
		}
		return nil
	}
	w := walk(0)
	return w == nil, w
}

// TestImpliesDifferential: over small domains, Implies must agree with
// exhaustive enumeration, and every returned witness must be a genuine
// counterexample.
func TestImpliesDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	fields := []Field{{Name: "a", Max: 7}, {Name: "b", Max: 7}, {Name: "c", Max: 7}}
	for trial := 0; trial < 200; trial++ {
		ca := randomConjs(r, fields, 1+r.Intn(6), 3)
		cb := randomConjs(r, fields, 1+r.Intn(6), 3)
		a, aSets, err := buildSets(fields, ca)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, bSets, err := buildSets(fields, cb)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ok, witness, err := Implies(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantOK, wantWitness := bruteImplies(a, b)
		if ok != wantOK {
			t.Fatalf("trial %d: Implies = %v, brute force = %v (counterexample %v)", trial, ok, wantOK, wantWitness)
		}
		if !ok {
			if !a.Lookup(witness).Matches || b.Lookup(witness).Matches {
				t.Fatalf("trial %d: witness %v is not a counterexample: a=%v b=%v",
					trial, witness, aSets.SetOf(a.Lookup(witness).Class), bSets.SetOf(b.Lookup(witness).Class))
			}
		}
	}
}

// TestImpliesCoverByProjection: dropping constraints from a conjunction
// (existential quantification over the dropped fields) always yields a
// cover — the construction the fabric's spine rule sets rely on.
func TestImpliesCoverByProjection(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	fields := []Field{{Name: "a", Max: 255}, {Name: "b", Max: 255}, {Name: "c", Max: 255}}
	for trial := 0; trial < 100; trial++ {
		full := randomConjs(r, fields, 1+r.Intn(10), 3)
		cover := make([]Conj, len(full))
		for i, cj := range full {
			kept := Conj{Payload: 0}
			for _, con := range cj.Constraints {
				if con.Field == 0 { // keep only field "a" constraints
					kept.Constraints = append(kept.Constraints, con)
				}
			}
			cover[i] = kept
		}
		a, err := Build(fields, full)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := Build(fields, cover)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ok, witness, err := Implies(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !ok {
			t.Fatalf("trial %d: projection cover rejected, witness %v", trial, witness)
		}
		// The reverse direction must fail whenever the cover is strictly
		// coarser; when it fails the witness must be genuine.
		if ok, witness, err := Implies(b, a); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		} else if !ok {
			if !b.Lookup(witness).Matches || a.Lookup(witness).Matches {
				t.Fatalf("trial %d: reverse witness %v is not genuine", trial, witness)
			}
		}
	}
}

func TestImpliesFieldMismatch(t *testing.T) {
	a, err := Build([]Field{{Name: "a", Max: 7}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build([]Field{{Name: "a", Max: 15}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Implies(a, b); err == nil {
		t.Fatal("mismatched domains accepted")
	}
}

func TestImpliesEmptyAndFull(t *testing.T) {
	fields := []Field{{Name: "a", Max: 63}}
	empty, err := Build(fields, nil)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Build(fields, []Conj{{Payload: 1}}) // unconstrained: matches everything
	if err != nil {
		t.Fatal(err)
	}
	some, err := Build(fields, []Conj{{Payload: 2, Constraints: []Constraint{{Field: 0, Set: interval.Point(5)}}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a, b *BDD
		want bool
	}{
		{"empty=>empty", empty, empty, true},
		{"empty=>some", empty, some, true},
		{"some=>all", some, all, true},
		{"all=>some", all, some, false},
		{"some=>empty", some, empty, false},
	} {
		ok, witness, err := Implies(tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.want {
			t.Fatalf("%s: got %v, want %v", tc.name, ok, tc.want)
		}
		if !ok && (!tc.a.Lookup(witness).Matches || tc.b.Lookup(witness).Matches) {
			t.Fatalf("%s: witness %v not genuine", tc.name, witness)
		}
	}
}
