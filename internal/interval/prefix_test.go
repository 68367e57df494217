package interval

import (
	"math/rand"
	"testing"
)

func TestExpandRangeCoversExactly(t *testing.T) {
	const width = 8
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		lo := r.Uint64() % 256
		hi := lo + r.Uint64()%(256-lo)
		prefixes := ExpandRange(lo, hi, width)
		for v := uint64(0); v < 256; v++ {
			matched := false
			for _, p := range prefixes {
				if p.Matches(v) {
					if matched {
						t.Fatalf("[%d,%d]: value %d matched by two prefixes", lo, hi, v)
					}
					matched = true
				}
			}
			want := lo <= v && v <= hi
			if matched != want {
				t.Fatalf("[%d,%d]: value %d matched=%v want=%v (prefixes=%v)", lo, hi, v, matched, want, prefixes)
			}
		}
	}
}

func TestExpandRangeWorstCase(t *testing.T) {
	// The classic worst case [1, 2^w-2] needs 2w-2 prefixes.
	for _, w := range []int{4, 8, 16} {
		max := (uint64(1) << w) - 1
		got := len(ExpandRange(1, max-1, w))
		want := 2*w - 2
		if got != want {
			t.Errorf("width %d: worst case needs %d prefixes, want %d", w, got, want)
		}
	}
}

func TestExpandRangeFullDomainIsOnePrefix(t *testing.T) {
	got := ExpandRange(0, 255, 8)
	if len(got) != 1 || got[0].Mask != 0 {
		t.Fatalf("full domain should be a single zero-mask prefix, got %v", got)
	}
}

func TestExpandRangePoint(t *testing.T) {
	got := ExpandRange(42, 42, 8)
	if len(got) != 1 || got[0].Value != 42 || got[0].Mask != 0xff || got[0].Bits != 8 {
		t.Fatalf("point expansion wrong: %v", got)
	}
}

func TestExpandRangeEmptyAndClamped(t *testing.T) {
	if got := ExpandRange(10, 5, 8); got != nil {
		t.Fatalf("inverted range should expand to nothing, got %v", got)
	}
	if got := ExpandRange(300, 400, 8); got != nil {
		t.Fatalf("range above the domain should expand to nothing, got %v", got)
	}
	// hi beyond the domain is clamped.
	got := ExpandRange(250, 400, 8)
	for _, p := range got {
		for v := uint64(0); v < 250; v++ {
			if p.Matches(v) {
				t.Fatalf("clamped range matched %d", v)
			}
		}
	}
}

func TestExpandRange64Bit(t *testing.T) {
	max := ^uint64(0)
	got := ExpandRange(0, max, 64)
	if len(got) != 1 || got[0].Mask != 0 {
		t.Fatalf("full 64-bit domain should be one prefix, got %v", got)
	}
	got = ExpandRange(max, max, 64)
	if len(got) != 1 || got[0].Value != max || got[0].Mask != max {
		t.Fatalf("64-bit point expansion wrong: %v", got)
	}
}

func TestTCAMCost(t *testing.T) {
	s := Range(1, 14) // [1,14] over 4 bits: worst case 6 prefixes
	if got := s.TCAMCost(4); got != 6 {
		t.Fatalf("TCAMCost([1,14], 4 bits) = %d, want 6", got)
	}
	if got := Empty().TCAMCost(8); got != 0 {
		t.Fatalf("TCAMCost(empty) = %d, want 0", got)
	}
}

// TestPrefixCountIsLenExpandRange: the count that builds nothing agrees
// with the expansion, over random ranges at every width and on the shapes
// the walk could get wrong — the whole domain, its two ends, points, ranges
// that run off the domain or start beyond it, and empty ones.
func TestPrefixCountIsLenExpandRange(t *testing.T) {
	check := func(lo, hi uint64, width int) {
		t.Helper()
		if got, want := PrefixCount(lo, hi, width), len(ExpandRange(lo, hi, width)); got != want {
			t.Fatalf("PrefixCount(%d, %d, %d) = %d, ExpandRange gives %d prefixes", lo, hi, width, got, want)
		}
	}
	r := rand.New(rand.NewSource(15))
	for width := 1; width <= 64; width++ {
		max := ^uint64(0) >> (64 - width)
		for _, c := range [][2]uint64{
			{0, max}, {0, 0}, {max, max}, {1, max}, {0, max - 1}, {1, max - 1},
			{max / 2, max/2 + 1}, {0, ^uint64(0)}, {max, ^uint64(0)}, {5, 3},
		} {
			check(c[0], c[1], width)
		}
		if width < 64 {
			check(max+1, max+9, width) // wholly outside the domain
		}
		for i := 0; i < 500; i++ {
			lo, hi := r.Uint64()&max, r.Uint64()&max
			if i%4 == 0 { // narrow ranges, which random ends almost never give
				hi = lo + r.Uint64()%64
			}
			check(lo, hi, width)
			check(lo, lo, width)
		}
	}
}
