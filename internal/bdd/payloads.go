package bdd

import "math/bits"

// PayloadSets is the Classifier whose classes are the payload sets
// themselves, which SetOf lists. Build terminates on one, and a caller that
// reads which payloads matched (package analyze) builds on one of its own.
// Its tables are indexed by payload.
type PayloadSets struct {
	// count is each payload's Adds less its Removes. held has a bit per
	// payload held, one whose count is not zero, and heldWords a bit per word
	// of held that is not zero; nheld counts them, and sum is the order-free
	// sum of their hashes, by which their class is found.
	count           []int32
	held, heldWords []uint64
	nheld           int
	sum             hash128
	classes         map[hash128]int
	sets            [][]int // by class
}

// NewPayloadSets returns a PayloadSets that holds nothing.
func NewPayloadSets() *PayloadSets { return &PayloadSets{classes: make(map[hash128]int)} }

// Add counts payload p in, making room for it first if need be.
func (s *PayloadSets) Add(p int) {
	if p >= len(s.count) {
		n := max(p+1, 2*len(s.count))
		s.count = append(s.count, make([]int32, n-len(s.count))...)
		s.held = append(s.held, make([]uint64, (n+63)/64-len(s.held))...)
		s.heldWords = append(s.heldWords, make([]uint64, (len(s.held)+63)/64-len(s.heldWords))...)
	}
	if s.count[p]++; s.count[p] == 1 {
		s.held[p>>6] |= 1 << (p & 63)
		s.heldWords[p>>12] |= 1 << (p >> 6 & 63)
		s.nheld++
		s.sum = s.sum.plus(payloadHash(p))
	}
}

// Remove counts payload p out.
func (s *PayloadSets) Remove(p int) {
	if s.count[p]--; s.count[p] == 0 {
		if s.held[p>>6] &^= 1 << (p & 63); s.held[p>>6] == 0 {
			s.heldWords[p>>12] &^= 1 << (p >> 6 & 63)
		}
		s.nheld--
		s.sum = s.sum.minus(payloadHash(p))
	}
}

// Class names the set held, listing it only the first time it is met. The
// empty set is a class too, the one that does not match.
func (s *PayloadSets) Class() (class int, matches bool) {
	class, ok := s.classes[s.sum]
	if !ok {
		set := make([]int, 0, s.nheld)
		for v, top := range s.heldWords {
			for ; top != 0; top &= top - 1 {
				w := v<<6 + bits.TrailingZeros64(top)
				for word := s.held[w]; word != 0; word &= word - 1 {
					set = append(set, w<<6+bits.TrailingZeros64(word))
				}
			}
		}
		class = len(s.sets)
		s.classes[s.sum] = class
		s.sets = append(s.sets, set)
	}
	return class, s.nheld > 0
}

// SetOf returns the payloads of a class in ascending order.
func (s *PayloadSets) SetOf(class int) []int { return s.sets[class] }

// payloadHash is a payload's term in the order-free sum.
func payloadHash(p int) hash128 { return hash128{uint64(p), 0x4cf5ad432745937f}.avalanche() }
