package bdd

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPayloadSetsClassIsTheSet: one set of payloads, reached by Adds in any
// order and any number of each, with other payloads added and removed on
// the way, is one class, and SetOf lists it in ascending order; the empty
// set is a class that does not match, and where every Remove leads back.
func TestPayloadSetsClassIsTheSet(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	s := NewPayloadSets()
	empty, matches := s.Class()
	if matches || len(s.SetOf(empty)) != 0 {
		t.Fatalf("nothing held: class %d, matches %v, set %v", empty, matches, s.SetOf(empty))
	}
	want := []int{0, 3, 63, 64, 4095, 4096, 70000} // across words of held and of heldWords
	class := -1
	for trial := 0; trial < 50; trial++ {
		var adds []int
		for _, p := range want {
			for k := r.Intn(3); k >= 0; k-- {
				adds = append(adds, p)
			}
		}
		r.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
		for _, p := range adds {
			s.Add(p)
			if r.Intn(3) == 0 {
				q := 100 + r.Intn(100)
				s.Add(q)
				s.Remove(q)
			}
		}
		got, matches := s.Class()
		if !matches || !slices.Equal(s.SetOf(got), want) {
			t.Fatalf("trial %d: class %d, matches %v, set %v; want the set %v", trial, got, matches, s.SetOf(got), want)
		}
		if class >= 0 && got != class {
			t.Fatalf("trial %d: the set is class %d, and was class %d", trial, got, class)
		}
		class = got
		for _, p := range adds {
			s.Remove(p)
		}
		if got, matches := s.Class(); got != empty || matches {
			t.Fatalf("trial %d: everything removed, class %d (matches %v); the empty set is %d", trial, got, matches, empty)
		}
	}
}
