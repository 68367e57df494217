package compiler

import (
	"slices"

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
//
//camus:hotpath
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

// Slots prices a table in the switch memory it occupies, as Stats reports
// it: an exact row of an exact table (a codec's main table is one) is an
// SRAM word; any other row is a TCAM entry, a range as many as its prefixes;
// and a codec costs the TCAM entries of its mapping stage. bits is the
// field's width.
func (t *Table) Slots(bits int) (sram, tcam int) {
	if t.Codec != nil {
		tcam += t.Codec.TCAMCost(bits)
	}
	for _, e := range t.Entries {
		s, c := e.slots(t.Match, bits)
		sram, tcam = sram+s, tcam+c
	}
	return sram, tcam
}

// slots prices one row of a table that matches m, as Slots does.
func (e Entry) slots(m spec.MatchKind, bits int) (sram, tcam int) {
	switch {
	case e.Kind == EntryRange:
		return 0, interval.PrefixCount(e.Lo, e.Hi, bits)
	case e.Kind == EntryExact && m == spec.MatchExact:
		return 1, 0
	}
	return 0, 1
}

// compressionMinEntries is the table size below which compression is not
// worth a pipeline stage.
const compressionMinEntries = 16

// compressionMaxCodes bounds a compressed domain's size: 256 codes, the
// paper's 8-bit code.
const compressionMaxCodes = 256

// maybeCompress rewrites a range table to a codec + exact table when the
// field has few distinct range boundaries and the rewrite occupies fewer
// Slots: the mapping stage's prefixes plus one exact (SRAM) row per code a
// range covers, against the prefixes of the ranges it replaces. The rewrite
// is priced from its bounds before a row is written, and takes the table's
// own rows when it has as many.
func maybeCompress(t *Table, fi FieldInfo) {
	if t.Match != spec.MatchRange || len(t.Entries) < compressionMinEntries {
		return
	}
	boundSet := make(map[uint64]bool, min(2*len(t.Entries)+1, compressionMaxCodes+1))
	boundSet[0] = true
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
		if len(boundSet) > compressionMaxCodes {
			return
		}
	}
	if !hasRange {
		return
	}
	bounds := make([]uint64, 0, len(boundSet))
	for b := range boundSet {
		bounds = append(bounds, b)
	}
	slices.Sort(bounds)
	codec := &DomainCodec{Bounds: bounds, Max: fi.Max}

	// The rewrite's rows and Slots: a row per row, but a range an exact row
	// per code it covers.
	rows, sram, tcam := 0, 0, codec.TCAMCost(fi.Bits)
	for _, e := range t.Entries {
		n := 1
		if e.Kind == EntryRange {
			n, e.Kind = int(codec.Code(e.Hi)-codec.Code(e.Lo))+1, EntryExact
		}
		s, c := e.slots(spec.MatchExact, fi.Bits)
		rows, sram, tcam = rows+n, sram+n*s, tcam+n*c
	}
	if sram0, tcam0 := t.Slots(fi.Bits); sram+tcam >= sram0+tcam0 {
		return // not worth it
	}

	// Rewrite entries onto the code domain. Every row is one or more, so a
	// rewrite with as many rows writes row i over row i.
	rewritten := t.Entries[:0]
	if rows > len(t.Entries) {
		rewritten = make([]Entry, 0, rows)
	}
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
	sortEntries(rewritten)
	*t = Table{Name: t.Name, Field: t.Field, Match: spec.MatchExact, Entries: rewritten, Codec: codec}
}
