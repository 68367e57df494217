package interval

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyAndFull(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() {
		t.Fatal("Empty() not empty")
	}
	if e.Contains(0) {
		t.Fatal("Empty contains 0")
	}
	f := Full(100)
	if f.IsEmpty() || !f.IsFull(100) {
		t.Fatal("Full(100) wrong")
	}
	if !f.Contains(0) || !f.Contains(100) || f.Contains(101) {
		t.Fatal("Full(100) membership wrong")
	}
	if got := f.Count(); got != 101 {
		t.Fatalf("Full(100).Count() = %d, want 101", got)
	}
}

func TestPredicateConstructors(t *testing.T) {
	const max = 1000
	cases := []struct {
		name string
		s    Set
		in   []uint64
		out  []uint64
	}{
		{"Point(5)", Point(5), []uint64{5}, []uint64{4, 6, 0}},
		{"GreaterThan(50)", GreaterThan(50, max), []uint64{51, max}, []uint64{50, 0}},
		{"GreaterThan(max)", GreaterThan(max, max), nil, []uint64{0, max}},
		{"LessThan(50)", LessThan(50), []uint64{0, 49}, []uint64{50, max}},
		{"LessThan(0)", LessThan(0), nil, []uint64{0}},
		{"AtLeast(50)", AtLeast(50, max), []uint64{50, max}, []uint64{49}},
		{"AtMost(50)", AtMost(50), []uint64{0, 50}, []uint64{51}},
		{"NotEqual(50)", NotEqual(50, max), []uint64{49, 51, 0, max}, []uint64{50}},
		{"NotEqual(0)", NotEqual(0, max), []uint64{1, max}, []uint64{0}},
		{"NotEqual(max)", NotEqual(max, max), []uint64{0, max - 1}, []uint64{max}},
	}
	for _, c := range cases {
		for _, v := range c.in {
			if !c.s.Contains(v) {
				t.Errorf("%s should contain %d (set=%s)", c.name, v, c.s)
			}
		}
		for _, v := range c.out {
			if c.s.Contains(v) {
				t.Errorf("%s should not contain %d (set=%s)", c.name, v, c.s)
			}
		}
	}
}

func TestRangeEmptyWhenInverted(t *testing.T) {
	if !Range(5, 4).IsEmpty() {
		t.Fatal("Range(5,4) should be empty")
	}
}

func TestUnionCoalesces(t *testing.T) {
	s := Range(0, 4).Union(Range(5, 9))
	if len(s.Intervals()) != 1 {
		t.Fatalf("adjacent ranges should coalesce, got %s", s)
	}
	if !s.Equal(Range(0, 9)) {
		t.Fatalf("got %s, want [0,9]", s)
	}
	s2 := Range(0, 3).Union(Range(5, 9))
	if len(s2.Intervals()) != 2 {
		t.Fatalf("non-adjacent ranges should not coalesce, got %s", s2)
	}
}

func TestComplementEdges(t *testing.T) {
	const max = 255
	if got := Empty().Complement(max); !got.IsFull(max) {
		t.Fatalf("complement of empty = %s", got)
	}
	if got := Full(max).Complement(max); !got.IsEmpty() {
		t.Fatalf("complement of full = %s", got)
	}
	if got := Point(0).Complement(max); !got.Equal(Range(1, max)) {
		t.Fatalf("complement of {0} = %s", got)
	}
	if got := Point(max).Complement(max); !got.Equal(Range(0, max-1)) {
		t.Fatalf("complement of {max} = %s", got)
	}
}

func TestComplementOfFull64BitDomain(t *testing.T) {
	max := ^uint64(0)
	if got := Full(max).Complement(max); !got.IsEmpty() {
		t.Fatalf("complement of full 64-bit domain = %s", got)
	}
	s := Point(max).Complement(max)
	if s.Contains(max) || !s.Contains(max-1) {
		t.Fatalf("complement of {2^64-1} wrong: %s", s)
	}
	if got := Full(max).Minus(Point(max)); !got.Equal(s) {
		t.Fatalf("full 64-bit domain minus {2^64-1} = %s, want %s", got, s)
	}
	if got := Point(max).Minus(Full(max)); !got.IsEmpty() {
		t.Fatalf("{2^64-1} minus the full 64-bit domain = %s", got)
	}
}

// randomSet builds a pseudo-random interval set within [0, max].
func randomSet(r *rand.Rand, max uint64) Set {
	s := Empty()
	n := r.Intn(4)
	for i := 0; i < n; i++ {
		lo := r.Uint64() % (max + 1)
		hi := lo + r.Uint64()%32
		if hi > max {
			hi = max
		}
		s = s.Union(Range(lo, hi))
	}
	return s
}

func TestSetAlgebraProperties(t *testing.T) {
	const max = 255 // small domain so membership can be checked exhaustively
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := randomSet(r, max)
		b := randomSet(r, max)
		inter := a.Intersect(b)
		uni := a.Union(b)
		compA, compB := a.Complement(max), b.Complement(max)
		minus := a.Minus(b)
		for v := uint64(0); v <= max; v++ {
			inA, inB := a.Contains(v), b.Contains(v)
			if inter.Contains(v) != (inA && inB) {
				t.Fatalf("trial %d: intersect wrong at %d: a=%s b=%s", trial, v, a, b)
			}
			if uni.Contains(v) != (inA || inB) {
				t.Fatalf("trial %d: union wrong at %d: a=%s b=%s", trial, v, a, b)
			}
			if compA.Contains(v) != !inA {
				t.Fatalf("trial %d: complement wrong at %d: a=%s", trial, v, a)
			}
			if minus.Contains(v) != (inA && !inB) {
				t.Fatalf("trial %d: minus wrong at %d: a=%s b=%s", trial, v, a, b)
			}
		}
		if want := a.Intersect(compB); !minus.Equal(want) { // the same values, so canonical when equal
			t.Fatalf("trial %d: minus %s, not in canonical form %s: a=%s b=%s", trial, minus, want, a, b)
		}
		if a.Overlaps(b) != !inter.IsEmpty() {
			t.Fatalf("trial %d: Overlaps inconsistent with Intersect", trial)
		}
		if a.SubsetOf(uni) != true {
			t.Fatalf("trial %d: a should be subset of a∪b", trial)
		}
		if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
			t.Fatalf("trial %d: a∩b should be subset of both", trial)
		}
		// Involution: complement twice is identity.
		if !compA.Complement(max).Equal(a) {
			t.Fatalf("trial %d: double complement != identity: %s", trial, a)
		}
	}
}

// TestOverlapsAgreesWithTwoPointerWalk: the binary search Overlaps takes
// when either side is one interval must answer as the merge walk over both
// interval lists does, in either argument order, on sets of many intervals
// and on the boundaries (touching, nested, before the first, past the last).
func TestOverlapsAgreesWithTwoPointerWalk(t *testing.T) {
	walk := func(s, t Set) bool {
		i, j := 0, 0
		for i < len(s.ivs) && j < len(t.ivs) {
			a, b := s.ivs[i], t.ivs[j]
			if a.Lo <= b.Hi && b.Lo <= a.Hi {
				return true
			}
			if a.Hi < b.Hi {
				i++
			} else {
				j++
			}
		}
		return false
	}
	const max = 400
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		many := Empty()
		for n := r.Intn(12); n > 0; n-- {
			lo := r.Uint64() % (max + 1)
			many = many.Union(Range(lo, lo+r.Uint64()%8))
		}
		lo := r.Uint64() % (max + 10)
		one := Range(lo, lo+r.Uint64()%20)
		if trial%10 == 0 {
			one = Empty()
		}
		other := randomSet(r, max)
		for _, pair := range [][2]Set{{one, many}, {many, one}, {one, one}, {many, other}} {
			if got, want := pair[0].Overlaps(pair[1]), walk(pair[0], pair[1]); got != want {
				t.Fatalf("trial %d: %s overlaps %s = %v, the walk says %v", trial, pair[0], pair[1], got, want)
			}
		}
	}
}

func TestSetKeyCanonical(t *testing.T) {
	a := Range(1, 5).Union(Range(10, 12))
	b := Range(10, 12).Union(Range(1, 5))
	if a.Key() != b.Key() {
		t.Fatalf("keys differ for equal sets: %q vs %q", a.Key(), b.Key())
	}
	if a.Key() == Range(1, 5).Key() {
		t.Fatal("different sets share a key")
	}
}

func TestCountQuick(t *testing.T) {
	f := func(lo uint8, span uint8) bool {
		s := Range(uint64(lo), uint64(lo)+uint64(span))
		return s.Count() == uint64(span)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	s := Range(3, 9).Union(Range(20, 30))
	if s.Min() != 3 || s.Max() != 30 {
		t.Fatalf("Min/Max wrong: %d %d", s.Min(), s.Max())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty set should panic")
		}
	}()
	Empty().Min()
}

func TestIsPoint(t *testing.T) {
	if v, ok := Point(7).IsPoint(); !ok || v != 7 {
		t.Fatal("Point(7).IsPoint() wrong")
	}
	if _, ok := Range(7, 8).IsPoint(); ok {
		t.Fatal("Range(7,8) is not a point")
	}
	if _, ok := Empty().IsPoint(); ok {
		t.Fatal("Empty is not a point")
	}
}
