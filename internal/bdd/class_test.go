package bdd

import (
	"math/rand"
	"testing"
)

// portsOf is a stand-in for the compiler's action merge: payload p forwards
// to port p%3, except that every fourth payload is a rule that drops. The
// class is the port bitmap, and a packet nobody forwards is not matched.
func portsOf(payloads []int) (class int, matches bool) {
	for _, p := range payloads {
		if p%4 != 0 {
			class |= 1 << (p % 3)
		}
	}
	return class, class != 0
}

// TestClassTerminalsReduceTheExactDiagram builds random rule sets twice,
// terminals as payload sets and as classes of them, and requires of the
// second: the class of the payload set the first finds, on every packet of
// a small space; one terminal per class and no payloads on any; no more
// nodes than the first; the classifier left holding nothing; and the same
// diagram, node for node, from an arena (and classifier) that has built
// others.
func TestClassTerminalsReduceTheExactDiagram(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	fields := []Field{{Name: "a", Max: 7}, {Name: "b", Max: 7}, {Name: "c", Max: 7}}
	warmClassifier := classifierOf(t, portsOf)
	warm := NewClassBuilder(warmClassifier)
	for trial := 0; trial < 100; trial++ {
		conjs := randomConjs(r, fields, 1+r.Intn(12), 3)
		exact, err := Build(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		cold := classifierOf(t, portsOf)
		classed, err := NewClassBuilder(cold).Build(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		cold.requireEmpty()
		if classed.NumNodes() > exact.NumNodes() {
			t.Fatalf("trial %d: %d nodes by class, %d by payload set", trial, classed.NumNodes(), exact.NumNodes())
		}
		seen := map[int]bool{}
		for _, term := range classed.Terminals() {
			if seen[term.Class] || term.Payloads != nil {
				t.Fatalf("trial %d: terminal %+v beside classes %v", trial, term, seen)
			}
			seen[term.Class] = true
		}
		values := make([]uint64, len(fields))
		for v := 0; v < 8*8*8; v++ {
			values[0], values[1], values[2] = uint64(v&7), uint64(v>>3&7), uint64(v>>6)
			class, matches := portsOf(exact.Lookup(values).Payloads)
			if got := classed.Lookup(values); got.Class != class || got.Matches != matches {
				t.Fatalf("trial %d: packet %v reaches class %d (matches %v), its payloads %v are class %d (%v)",
					trial, values, got.Class, got.Matches, exact.Lookup(values).Payloads, class, matches)
			}
		}
		again, err := warm.Build(fields, conjs)
		if err != nil {
			t.Fatal(err)
		}
		warmClassifier.requireEmpty()
		requireSameBDD(t, classed, again, fields, int64(trial))
		for i, term := range classed.Terminals() {
			if w := again.Terminals()[i]; w.Class != term.Class || w.Matches != term.Matches {
				t.Fatalf("trial %d: warm terminal %+v, cold %+v", trial, w, term)
			}
		}
	}
}

// TestImpliesOverClasses: with terminals that are classes, a region whose
// rules all drop is the same terminal as the region no rule matches, and
// Implies must treat it so whichever was built first. The oracle is the
// enumeration of every packet.
func TestImpliesOverClasses(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	fields := []Field{{Name: "a", Max: 7}, {Name: "b", Max: 7}, {Name: "c", Max: 7}}
	refuted := 0
	for trial := 0; trial < 200; trial++ {
		a, err := NewClassBuilder(classifierOf(t, portsOf)).Build(fields, randomConjs(r, fields, 1+r.Intn(6), 3))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewClassBuilder(classifierOf(t, portsOf)).Build(fields, randomConjs(r, fields, 1+r.Intn(6), 3))
		if err != nil {
			t.Fatal(err)
		}
		ok, witness, err := Implies(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if wantOK, wantWitness := bruteImplies(a, b); ok != wantOK {
			t.Fatalf("trial %d: Implies = %v, brute force = %v (counterexample %v)", trial, ok, wantOK, wantWitness)
		}
		if !ok {
			refuted++
			if !a.Lookup(witness).Matches || b.Lookup(witness).Matches {
				t.Fatalf("trial %d: witness %v is not a counterexample", trial, witness)
			}
		}
	}
	if refuted == 0 || refuted == 200 {
		t.Fatalf("%d of 200 trials refuted: the test decides nothing", refuted)
	}
}
