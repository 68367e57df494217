package compiler

import (
	"slices"
	"testing"

	"camus/internal/lang"
)

// FuzzPortSetMatchesSortedList holds a PortSet to the sorted, deduplicated
// []int it stands for, over port multisets clustered round a base within a
// span from one port to past lang.MaxPort: AppendTo is that list, Len and
// Contains agree with it, the encoding costs at most 8 B a port plus one
// word, the set is one value whatever order its ports came in, sorted
// first or as a class arena makes it, and its Hash is equal exactly when
// the sorted lists are.
func FuzzPortSetMatchesSortedList(f *testing.F) {
	f.Add(uint32(0), uint8(0), []byte{})
	f.Add(uint32(0), uint8(17), []byte{0, 0, 0, 0, 0, 1, 255, 255, 0})
	f.Add(uint32(lang.MaxPort), uint8(0), []byte{0, 0, 0})
	f.Add(uint32(lang.MaxPort-5), uint8(4), []byte{0, 0, 0, 5, 0, 0, 7, 0, 0, 5, 0, 0})
	f.Add(uint32(3), uint8(8), []byte{0, 0, 0, 6, 0, 0, 61, 0, 0, 127, 0, 0, 197, 0, 0})
	f.Add(uint32(1), uint8(16), []byte{0, 0, 0, 255, 255, 0, 0, 128, 0})
	f.Fuzz(func(t *testing.T, base uint32, spanLog uint8, data []byte) {
		const ports = lang.MaxPort + 1
		span := 1 << (spanLog % 18)
		var multiset []int
		for ; len(data) >= 3; data = data[3:] {
			v := int(data[0]) | int(data[1])<<8 | int(data[2])<<16
			multiset = append(multiset, (int(base%ports)+v%span)%ports)
		}
		want := slices.Clone(multiset)
		slices.Sort(want)
		want = slices.Compact(want)

		s := newPortSet(multiset...)
		if got := s.AppendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("AppendTo = %v, want %v", got, want)
		}
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
		if bytes, bound := 8*len(s.w), 8*len(want)+8; bytes > bound {
			t.Fatalf("%d ports encoded in %d B, bound %d", len(want), bytes, bound)
		}
		probes := []int{-1, 0, lang.MaxPort, lang.MaxPort + 1}
		for _, p := range want {
			probes = append(probes, p-1, p, p+1, p+64)
		}
		for _, p := range probes {
			if _, in := slices.BinarySearch(want, p); s.Contains(p) != in {
				t.Fatalf("Contains(%d) = %v, want %v", p, !in, in)
			}
		}

		// Mark: into nothing it sets exactly the ports and meets nothing;
		// over every third port and one past the span it meets exactly when
		// the set holds a third port.
		bits := func(bm []uint64) []int {
			var out []int
			for p := 0; p < 64*len(bm); p++ {
				if bm[p>>6]&(1<<(p&63)) != 0 {
					out = append(out, p)
				}
			}
			return out
		}
		bm, met := s.Mark(nil)
		if got := bits(bm); met || !slices.Equal(got, want) {
			t.Fatalf("Mark(nil) = %v, met %v, want %v, false", got, met, want)
		}
		var prior []int
		for _, p := range want {
			if p%3 == 0 {
				prior = append(prior, p)
			}
		}
		prior = append(prior, (int(base%ports)+span)%ports)
		wantMet := slices.ContainsFunc(prior, func(p int) bool { return s.Contains(p) })
		var pm []uint64
		for _, p := range prior {
			pm, _ = newPortSet(p).Mark(pm)
		}
		union := append(slices.Clone(prior), want...)
		slices.Sort(union)
		union = slices.Compact(union)
		if pm, met = s.Mark(pm); met != wantMet || !slices.Equal(bits(pm), union) {
			t.Fatalf("Mark over %v = %v, met %v, want %v, %v", prior, bits(pm), met, union, wantMet)
		}

		slices.Reverse(multiset)
		if r := newPortSet(multiset...); !r.Equal(s) {
			t.Fatalf("ports reversed are %+v, in order %+v", r, s)
		}
		distinct := make([]uint32, len(want))
		for i, p := range want {
			distinct[len(want)-1-i] = uint32(p)
		}
		if a := portSetOf(distinct); !a.Equal(s) {
			t.Fatalf("an arena's set %+v, the sorted list's %+v", a, s)
		}
		if len(want) > 0 && newPortSet(want[1:]...).Equal(s) {
			t.Fatalf("%v without its first port equals it", want)
		}

		// Hash is equal exactly when the sorted lists are, whichever of
		// bitmap and list each side is: a port far from the rest makes a
		// bitmap a list, and moving the last port up one keeps the count.
		others := []PortSet{newPortSet(multiset...), portSetOf(distinct), newPortSet(append(slices.Clone(want), (int(base%ports)+ports/2)%ports)...)}
		if n := len(want); n > 0 {
			moved := slices.Clone(want)
			moved[n-1] = (moved[n-1] + 1) % ports
			others = append(others, newPortSet(want[1:]...), newPortSet(want[:n-1]...), newPortSet(moved...))
		}
		for _, o := range others {
			if same := slices.Equal(o.AppendTo(nil), want); (o.Hash() == s.Hash()) != same {
				t.Fatalf("%v (listed %v) and %v (listed %v): equal %v, hashes %x and %x",
					want, s.base == listed, o, o.base == listed, same, s.Hash(), o.Hash())
			}
		}
	})
}
