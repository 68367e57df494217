package compiler

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// PortSet is an immutable set of output ports, enumerated in ascending
// order. Its encoding is a function of the ports alone — there is no
// per-program index — so a set means the same in every program and every
// Session recompile, and two sets are equal exactly when their encodings
// are. Like a Roaring container it is one of two:
//
//   - a bitmap of ⌈span/64⌉ words from its smallest port, when that is no
//     more words than it has ports (host numbers are usually dense: 200
//     hosts are 4 words);
//   - otherwise its ports ascending as uint32, two to a word.
//
// Either way it costs at most 8 B a port plus one word, never more than the
// []int it stands for. The zero PortSet is empty.
type PortSet struct {
	w    []uint64
	base uint32 // the bitmap's first port, or listed
	n    uint32 // how many ports
}

// listed is the base of a set whose words list its ports: no bitmap starts
// there.
const listed = math.MaxUint32

// portSetOf is the set of distinct ports, in any order, each below listed.
// It sorts them only when they are too sparse for a bitmap.
func portSetOf(ports []uint32) PortSet {
	if len(ports) == 0 {
		return PortSet{}
	}
	lo, hi := slices.Min(ports), slices.Max(ports)
	s := PortSet{n: uint32(len(ports))}
	if words := (hi-lo)/64 + 1; words <= s.n {
		s.base, s.w = lo, make([]uint64, words)
		for _, p := range ports {
			d := p - lo
			s.w[d>>6] |= 1 << (d & 63)
		}
		return s
	}
	slices.Sort(ports)
	s.base, s.w = listed, make([]uint64, (len(ports)+1)/2)
	for i, p := range ports {
		s.w[i>>1] |= uint64(p) << ((i & 1) * 32)
	}
	return s
}

// Len is the number of ports.
//
//camus:hotpath
func (s PortSet) Len() int { return int(s.n) }

// Contains reports whether p is in the set.
func (s PortSet) Contains(p int) bool {
	if p < 0 || uint64(p) >= listed {
		return false
	}
	if s.base != listed {
		d := uint64(p) - uint64(s.base)
		return d < uint64(len(s.w))*64 && s.w[d>>6]&(1<<(d&63)) != 0
	}
	i := sort.Search(int(s.n), func(i int) bool { return s.at(i) >= uint32(p) })
	return i < int(s.n) && s.at(i) == uint32(p)
}

// at is the i-th port of a listed set.
func (s PortSet) at(i int) uint32 { return uint32(s.w[i>>1] >> ((i & 1) * 32)) }

// Mark sets the ports in bm, a bitmap of ports from 0 that it grows to
// hold them, and reports whether any of them was set already. A bitmap
// set is marked and tested a word at a time.
//
//camus:hotpath
func (s PortSet) Mark(bm []uint64) ([]uint64, bool) {
	if s.n == 0 {
		return bm, false
	}
	top := s.base>>6 + uint32(len(s.w)) // the word a shifted bitmap may spill into
	if s.base == listed {
		top = s.at(int(s.n)-1) >> 6 // the word of the last port
	}
	if need := int(top) + 1; need > len(bm) {
		//camus:alloc-ok grows to the caller's high-water port once, then is reused
		bm = append(bm, make([]uint64, need-len(bm))...)
	}
	var met uint64
	if s.base == listed {
		for i := 0; i < int(s.n); i++ {
			p := s.at(i)
			bit := uint64(1) << (p & 63)
			met |= bm[p>>6] & bit
			bm[p>>6] |= bit
		}
		return bm, met != 0
	}
	w0, sh := int(s.base>>6), s.base&63
	for j, x := range s.w {
		lo := x << sh
		met |= bm[w0+j] & lo
		bm[w0+j] |= lo
		if sh != 0 {
			hi := x >> (64 - sh)
			met |= bm[w0+j+1] & hi
			bm[w0+j+1] |= hi
		}
	}
	return bm, met != 0
}

// AppendTo appends the ports, ascending, to dst.
func (s PortSet) AppendTo(dst []int) []int {
	for it := s.Iter(); it.Next(); {
		dst = append(dst, it.Port())
	}
	return dst
}

// Equal reports whether two sets hold the same ports.
func (s PortSet) Equal(t PortSet) bool {
	return s.base == t.base && s.n == t.n && slices.Equal(s.w, t.w)
}

// String renders the ports as a []int prints.
func (s PortSet) String() string { return fmt.Sprint(s.AppendTo(nil)) }

// Hash is the content hash of the encoding, which is the set's identity in
// every program: two sets share it exactly when they are equal, up to the
// odds of two random 128-bit values colliding. Groups are keyed by it.
func (s PortSet) Hash() [2]uint64 {
	h := hashIn(portDomain).word(uint64(s.base)<<32 | uint64(s.n))
	for _, w := range s.w {
		h = h.word(w)
	}
	sum := h.sum()
	return [2]uint64{sum.a, sum.b}
}

// Iter starts a walk over the ports in ascending order:
//
//	for it := s.Iter(); it.Next(); {
//		use(it.Port())
//	}
//
//camus:hotpath
func (s PortSet) Iter() PortIter { return PortIter{s: s} }

// PortIter walks a PortSet; it allocates nothing.
type PortIter struct {
	s    PortSet
	i    int    // the next word of a bitmap, the next port of a list
	word uint64 // what is left of bitmap word i-1
	port int
}

// Next moves to the next port, and reports whether there is one.
//
//camus:hotpath
func (it *PortIter) Next() bool {
	s := &it.s
	if s.base == listed {
		if it.i >= int(s.n) {
			return false
		}
		it.port = int(s.at(it.i))
		it.i++
		return true
	}
	for it.word == 0 {
		if it.i >= len(s.w) {
			return false
		}
		it.word = s.w[it.i]
		it.i++
	}
	it.port = int(s.base) + (it.i-1)<<6 + bits.TrailingZeros64(it.word)
	it.word &= it.word - 1
	return true
}

// Port is the port Next moved to.
//
//camus:hotpath
func (it *PortIter) Port() int { return it.port }
