package compiler

import (
	"sort"

	"camus/internal/interval"
	"camus/internal/spec"
)

// DomainCodec implements the paper's third resource optimization: "some
// fields will probably have only a few unique range predicates. The
// compiler can map values for that field and the corresponding range
// predicates onto a lower-resolution domain (e.g., 8-bits)."
//
// The domain [0, Max] is partitioned at every boundary that appears in the
// table's entries; each partition interval gets a small integer code. A
// mapping stage (one range entry per partition interval, cheap because
// there are few) translates the packet value to its code, and the main
// table then matches codes exactly in SRAM.
type DomainCodec struct {
	// Bounds holds the partition's interval start points, sorted
	// ascending, always beginning with 0. Code(v) is the index of the
	// greatest bound <= v.
	Bounds []uint64
	// Max is the field's domain maximum (the last interval is
	// [Bounds[len-1], Max]).
	Max uint64
}

// Code maps a field value to its partition code.
func (c *DomainCodec) Code(v uint64) uint64 {
	lo, hi := 0, len(c.Bounds)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.Bounds[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return uint64(lo)
}

// NumIntervals returns the number of partition intervals (= mapping-table
// entries).
func (c *DomainCodec) NumIntervals() int { return len(c.Bounds) }

// IntervalFor returns the partition interval for a code.
func (c *DomainCodec) IntervalFor(code uint64) interval.Interval {
	lo := c.Bounds[code]
	hi := c.Max
	if int(code)+1 < len(c.Bounds) {
		hi = c.Bounds[code+1] - 1
	}
	return interval.Interval{Lo: lo, Hi: hi}
}

// TCAMCost returns the TCAM entries needed by the mapping stage after
// range-to-prefix expansion.
func (c *DomainCodec) TCAMCost(bits int) int {
	n := 0
	for code := range c.Bounds {
		iv := c.IntervalFor(uint64(code))
		n += interval.PrefixCount(iv.Lo, iv.Hi, bits)
	}
	return n
}

// maybeCompress rewrites a range table to a codec + exact table when the
// field has few distinct range boundaries. The mapping stage costs one
// entry per partition interval; the main table's range entries become one
// exact (SRAM) entry per covered code.
func maybeCompress(t *Table, fi FieldInfo, opts Options) {
	if t.Match != spec.MatchRange || len(t.Entries) < opts.minEntries() {
		return
	}
	boundSet := map[uint64]bool{0: true}
	hasRange := false
	for _, e := range t.Entries {
		switch e.Kind {
		case EntryExact:
			boundSet[e.Lo] = true
			if e.Lo < fi.Max {
				boundSet[e.Lo+1] = true
			}
		case EntryRange:
			hasRange = true
			boundSet[e.Lo] = true
			if e.Hi < fi.Max {
				boundSet[e.Hi+1] = true
			}
		}
	}
	if !hasRange || len(boundSet) > opts.maxCodes() {
		return
	}
	bounds := make([]uint64, 0, len(boundSet))
	for b := range boundSet {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	codec := &DomainCodec{Bounds: bounds, Max: fi.Max}

	// Rewrite entries onto the code domain; bail out if the rewrite would
	// inflate the table past the TCAM cost it saves.
	var rewritten []Entry
	for _, e := range t.Entries {
		switch e.Kind {
		case EntryWild:
			rewritten = append(rewritten, e)
		case EntryExact:
			rewritten = append(rewritten, Entry{
				State: e.State, Kind: EntryExact,
				Lo: codec.Code(e.Lo), Hi: codec.Code(e.Lo),
				Next: e.Next, Priority: e.Priority,
			})
		case EntryRange:
			cl, ch := codec.Code(e.Lo), codec.Code(e.Hi)
			for c := cl; c <= ch; c++ {
				rewritten = append(rewritten, Entry{
					State: e.State, Kind: EntryExact,
					Lo: c, Hi: c, Next: e.Next, Priority: e.Priority,
				})
			}
		}
	}
	tcamBefore := 0
	for _, e := range t.Entries {
		if e.Kind == EntryRange {
			tcamBefore += interval.PrefixCount(e.Lo, e.Hi, fi.Bits)
		}
	}
	if len(rewritten)+codec.NumIntervals() > len(t.Entries)+tcamBefore {
		return // not worth it
	}
	sortEntries(rewritten)
	t.Entries = rewritten
	t.Codec = codec
	t.Match = spec.MatchExact
}
