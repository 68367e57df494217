package interval

// Prefix is a ternary value/mask pair: a packet value v matches when
// v&Mask == Value. Mask bits are contiguous from the MSB down (a prefix
// match), which is how range entries are expanded into TCAM entries.
type Prefix struct {
	Value uint64
	Mask  uint64
	Bits  int // number of significant (masked) bits
}

// Matches reports whether v matches the prefix.
func (p Prefix) Matches(v uint64) bool { return v&p.Mask == p.Value }

// ExpandRange decomposes the inclusive range [lo, hi] over a width-bit
// field into the minimal set of prefix (value/mask) entries, the classic
// range-to-TCAM expansion. The result has at most 2*width-2 entries, which
// is why the paper calls range matches "not scalable to hundreds of
// thousands of ranges" (§3.2) and prefers exact-match lowering.
func ExpandRange(lo, hi uint64, width int) []Prefix {
	if width <= 0 || width > 64 {
		panic("interval: ExpandRange width out of range")
	}
	var max uint64
	if width == 64 {
		max = ^uint64(0)
	} else {
		max = (uint64(1) << width) - 1
	}
	if lo > hi || lo > max {
		return nil
	}
	if hi > max {
		hi = max
	}
	var out []Prefix
	expand(lo, hi, 0, max, width, width, &out)
	return out
}

// expand recursively covers [lo,hi] within the aligned block [blockLo,
// blockHi] of size 2^(width-bits consumed).
func expand(lo, hi, blockLo, blockHi uint64, bitsLeft, width int, out *[]Prefix) {
	if lo == blockLo && hi == blockHi {
		mask := uint64(0)
		used := width - bitsLeft
		if used > 0 {
			mask = ^uint64(0) << (64 - used) >> (64 - width)
		}
		*out = append(*out, Prefix{Value: blockLo & mask, Mask: mask, Bits: used})
		return
	}
	// Split the block in half; bitsLeft > 0 because a size-1 block always
	// hits the exact-cover case above.
	half := (blockHi-blockLo)/2 + 1
	mid := blockLo + half // first value of the upper half
	switch {
	case hi < mid:
		expand(lo, hi, blockLo, mid-1, bitsLeft-1, width, out)
	case lo >= mid:
		expand(lo, hi, mid, blockHi, bitsLeft-1, width, out)
	default:
		expand(lo, mid-1, blockLo, mid-1, bitsLeft-1, width, out)
		expand(mid, hi, mid, blockHi, bitsLeft-1, width, out)
	}
}

// PrefixCount returns len(ExpandRange(lo, hi, width)) without building the
// prefixes: the walk that meets every maximal aligned block of the range
// once, bottom up.
func PrefixCount(lo, hi uint64, width int) int {
	if width <= 0 || width > 64 {
		panic("interval: PrefixCount width out of range")
	}
	if width < 64 && hi >= 1<<width {
		hi = 1<<width - 1
	}
	if lo > hi {
		return 0
	}
	// Per level: a lo that is a right child, a hi that is a left child, is a
	// block of its own; step past it and move both up to their parents.
	n := 0
	for lo < hi {
		if lo&1 == 1 {
			n++
			lo++
		}
		if hi&1 == 0 {
			n++
			hi--
		}
		if lo > hi { // the two met from either side: nothing is left between them
			return n
		}
		lo, hi = lo>>1, hi>>1
	}
	return n + 1 // lo == hi: one block
}

// TCAMCost returns the number of TCAM entries needed to represent the set
// over a width-bit field after range-to-prefix expansion.
func (s Set) TCAMCost(width int) int {
	n := 0
	for _, iv := range s.ivs {
		n += PrefixCount(iv.Lo, iv.Hi, width)
	}
	return n
}
