// Package interval implements interval-set arithmetic over bounded unsigned
// integer domains.
//
// The Camus compiler represents the set of field values that can still reach
// a BDD node as an interval set: a sorted list of disjoint, inclusive
// [Lo, Hi] ranges within the field's domain [0, Max]. Atomic predicates
// (==, <, >) and their negations are intervals or unions of two intervals,
// so every constraint the compiler manipulates stays closed under the
// operations here (intersection, union, complement).
package interval

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Interval is an inclusive range [Lo, Hi] of unsigned values.
type Interval struct {
	Lo, Hi uint64
}

// Contains reports whether v lies within the interval.
func (iv Interval) Contains(v uint64) bool { return iv.Lo <= v && v <= iv.Hi }

// IsPoint reports whether the interval holds exactly one value.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Width returns the number of values in the interval. A full 64-bit
// interval saturates at MaxUint64 (the true count would overflow).
func (iv Interval) Width() uint64 {
	if iv.Lo == 0 && iv.Hi == ^uint64(0) {
		return ^uint64(0)
	}
	return iv.Hi - iv.Lo + 1
}

func (iv Interval) String() string {
	if iv.IsPoint() {
		return fmt.Sprintf("[%d]", iv.Lo)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

// Set is a set of values represented as sorted, disjoint, non-adjacent
// inclusive intervals, all within [0, Max] for the owning field's domain.
// The zero value is the empty set.
type Set struct {
	ivs []Interval
}

// Empty returns the empty set.
func Empty() Set { return Set{} }

// Full returns the set covering the whole domain [0, max].
func Full(max uint64) Set { return Set{ivs: []Interval{{0, max}}} }

// Point returns the singleton set {v}.
func Point(v uint64) Set { return Set{ivs: []Interval{{v, v}}} }

// Range returns the set [lo, hi]. It returns the empty set if lo > hi.
func Range(lo, hi uint64) Set {
	if lo > hi {
		return Empty()
	}
	return Set{ivs: []Interval{{lo, hi}}}
}

// FromIntervals builds a set from arbitrary (possibly overlapping,
// unsorted) intervals, which it leaves as they are.
func FromIntervals(ivs ...Interval) Set {
	if len(ivs) == 0 {
		return Empty()
	}
	ivs = append([]Interval(nil), ivs...)
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		if last := &out[len(out)-1]; last.Hi == ^uint64(0) || iv.Lo <= last.Hi+1 {
			last.Hi = maxU64(last.Hi, iv.Hi)
		} else {
			out = append(out, iv)
		}
	}
	return Set{ivs: out}
}

// GreaterThan returns the set (n, max], i.e. values strictly above n.
func GreaterThan(n, max uint64) Set {
	if n >= max {
		return Empty()
	}
	return Range(n+1, max)
}

// LessThan returns the set [0, n), i.e. values strictly below n.
func LessThan(n uint64) Set {
	if n == 0 {
		return Empty()
	}
	return Range(0, n-1)
}

// AtLeast returns the set [n, max].
func AtLeast(n, max uint64) Set { return Range(n, max) }

// AtMost returns the set [0, n].
func AtMost(n uint64) Set { return Range(0, n) }

// NotEqual returns the domain [0, max] minus the point n.
func NotEqual(n, max uint64) Set {
	return Point(n).Complement(max)
}

// Intervals returns the underlying intervals. The returned slice must not
// be modified.
func (s Set) Intervals() []Interval { return s.ivs }

// IsEmpty reports whether the set contains no values.
func (s Set) IsEmpty() bool { return len(s.ivs) == 0 }

// IsFull reports whether the set covers the entire domain [0, max].
func (s Set) IsFull(max uint64) bool {
	return len(s.ivs) == 1 && s.ivs[0].Lo == 0 && s.ivs[0].Hi == max
}

// IsPoint reports whether the set contains exactly one value and, if so,
// returns it.
func (s Set) IsPoint() (uint64, bool) {
	if len(s.ivs) == 1 && s.ivs[0].IsPoint() {
		return s.ivs[0].Lo, true
	}
	return 0, false
}

// Contains reports whether v is a member of the set.
func (s Set) Contains(v uint64) bool {
	// Binary search over disjoint sorted intervals.
	lo, hi := 0, len(s.ivs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		iv := s.ivs[mid]
		switch {
		case v < iv.Lo:
			hi = mid - 1
		case v > iv.Hi:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// Min returns the smallest member. It panics on the empty set.
func (s Set) Min() uint64 {
	if s.IsEmpty() {
		panic("interval: Min of empty set")
	}
	return s.ivs[0].Lo
}

// Max returns the largest member. It panics on the empty set.
func (s Set) Max() uint64 {
	if s.IsEmpty() {
		panic("interval: Max of empty set")
	}
	return s.ivs[len(s.ivs)-1].Hi
}

// Count returns the number of values in the set, saturating at MaxUint64.
func (s Set) Count() uint64 {
	var n uint64
	for _, iv := range s.ivs {
		w := iv.Width()
		if n+w < n { // overflow
			return ^uint64(0)
		}
		n += w
	}
	return n
}

// Intersect returns the set of values in both s and t.
func (s Set) Intersect(t Set) Set {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(t.ivs) {
		a, b := s.ivs[i], t.ivs[j]
		lo := maxU64(a.Lo, b.Lo)
		hi := minU64(a.Hi, b.Hi)
		if lo <= hi {
			out = append(out, Interval{lo, hi})
		}
		if a.Hi < b.Hi {
			i++
		} else {
			j++
		}
	}
	return Set{ivs: out}
}

// Union returns the set of values in either s or t, with adjacent
// intervals coalesced.
func (s Set) Union(t Set) Set {
	merged := make([]Interval, 0, len(s.ivs)+len(t.ivs))
	i, j := 0, 0
	for i < len(s.ivs) || j < len(t.ivs) {
		var next Interval
		switch {
		case i == len(s.ivs):
			next = t.ivs[j]
			j++
		case j == len(t.ivs):
			next = s.ivs[i]
			i++
		case s.ivs[i].Lo <= t.ivs[j].Lo:
			next = s.ivs[i]
			i++
		default:
			next = t.ivs[j]
			j++
		}
		if n := len(merged); n > 0 && (next.Lo <= merged[n-1].Hi || (merged[n-1].Hi != ^uint64(0) && next.Lo == merged[n-1].Hi+1)) {
			if next.Hi > merged[n-1].Hi {
				merged[n-1].Hi = next.Hi
			}
		} else {
			merged = append(merged, next)
		}
	}
	return Set{ivs: merged}
}

// Complement returns the domain [0, max] minus s. Members of s above max
// are ignored.
func (s Set) Complement(max uint64) Set {
	out := make([]Interval, 0, len(s.ivs)+1)
	next := uint64(0)
	pending := true // whether [next, ...] is still open
	for _, iv := range s.ivs {
		if iv.Lo > max {
			break
		}
		if iv.Lo > next {
			out = append(out, Interval{next, iv.Lo - 1})
		}
		if iv.Hi >= max {
			pending = false
			break
		}
		next = iv.Hi + 1
	}
	if pending && next <= max {
		out = append(out, Interval{next, max})
	}
	return Set{ivs: out}
}

// Minus returns the values in s that are not in t.
func (s Set) Minus(t Set, max uint64) Set {
	return s.Intersect(t.Complement(max))
}

// Equal reports whether two sets contain exactly the same values.
func (s Set) Equal(t Set) bool {
	if len(s.ivs) != len(t.ivs) {
		return false
	}
	for i := range s.ivs {
		if s.ivs[i] != t.ivs[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether s and t share at least one value. When either
// side is a single interval the other is binary-searched.
func (s Set) Overlaps(t Set) bool {
	if len(t.ivs) == 1 {
		s, t = t, s
	}
	if len(s.ivs) == 1 {
		a := s.ivs[0] // only t's first interval ending at or after a.Lo can reach into it
		i := sort.Search(len(t.ivs), func(i int) bool { return t.ivs[i].Hi >= a.Lo })
		return i < len(t.ivs) && t.ivs[i].Lo <= a.Hi
	}
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

// SubsetOf reports whether every value in s is also in t. Because both
// interval lists are sorted, disjoint, and non-adjacent, a contiguous
// interval of s is covered iff it fits inside a single interval of t, so
// one merge walk decides the question without allocating.
func (s Set) SubsetOf(t Set) bool {
	j := 0
	for _, a := range s.ivs {
		for j < len(t.ivs) && t.ivs[j].Hi < a.Lo {
			j++
		}
		if j == len(t.ivs) || t.ivs[j].Lo > a.Lo || a.Hi > t.ivs[j].Hi {
			return false
		}
	}
	return true
}

func (s Set) String() string {
	if s.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, "∪")
}

// Key returns a canonical, comparable string encoding of the set, suitable
// for use as a map key when hash-consing BDD contexts.
func (s Set) Key() string {
	b := make([]byte, 0, len(s.ivs)*10)
	for _, iv := range s.ivs {
		b = strconv.AppendUint(b, iv.Lo, 16)
		b = append(b, '-')
		b = strconv.AppendUint(b, iv.Hi, 16)
		b = append(b, ';')
	}
	return string(b)
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
