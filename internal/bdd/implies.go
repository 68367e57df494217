package bdd

import (
	"fmt"

	"camus/internal/interval"
)

// Implies reports whether a ⊆ b as match predicates: every packet that a
// routes to a terminal that Matches is also routed to one by b. This is the soundness obligation of a covering rule set — a
// spine program b covers a leaf program a iff Implies(a, b) holds, since
// then no packet a subscriber behind the leaf would match can be dropped
// at the spine.
//
// The check is a product walk over the two diagrams, field by field. At
// each field the walk maintains the interval context (the values of the
// field that can still reach the current node pair) and partitions it into
// the at most four regions the two nodes' predicates cut it into; each
// region decides both predicates, so both nodes can be descended
// simultaneously. A node pair is a violation iff both are terminal, a's
// matches, and b's does not. On violation a concrete witness packet (one
// value per field, in field order) is returned: a.Lookup(witness) matches
// while b.Lookup(witness) does not.
//
// Both diagrams must be over the same field list (same names, domains,
// and order).
func Implies(a, b *BDD) (ok bool, witness []uint64, err error) {
	if len(a.Fields) != len(b.Fields) {
		return false, nil, fmt.Errorf("bdd: Implies over mismatched field lists (%d vs %d fields)", len(a.Fields), len(b.Fields))
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false, nil, fmt.Errorf("bdd: Implies over mismatched field %d (%s/%d vs %s/%d)",
				i, a.Fields[i].Name, a.Fields[i].Max, b.Fields[i].Name, b.Fields[i].Max)
		}
	}
	w := &impliesWalk{fields: a.Fields, memo: make(map[impliesKey]bool), witness: make([]uint64, len(a.Fields))}
	if w.ok(a.Root, b.Root, 0, interval.Set{}) {
		return true, nil, nil
	}
	return false, w.witness, nil
}

type impliesKey struct {
	aID, bID int
	field    int
	ctx      string
}

type impliesWalk struct {
	fields []Field
	// memo caches node pairs proven violation-free; violations short-circuit
	// the walk, so only "ok" results are ever re-queried.
	memo map[impliesKey]bool
	// witness[f] is the field-f value of the counterexample path currently
	// being explored; on violation the unwinding stack leaves it populated.
	witness []uint64
}

// ok reports whether the product of na and nb is violation-free for
// packets whose field-f value lies in ctx (the zero Set meaning the full
// domain) and whose fields before f are fixed by witness[:f].
func (w *impliesWalk) ok(na, nb *Node, f int, ctx interval.Set) bool {
	// A packet a cannot match is never a violation; one b always matches
	// never is either. These two prunes make the walk linear in practice.
	if na.IsTerminal() && !na.Matches {
		return true
	}
	if nb.IsTerminal() && nb.Matches {
		return true
	}
	if f == len(w.fields) {
		// Ordered diagrams: past the last field both nodes are terminal.
		return !(na.Matches && !nb.Matches)
	}
	if ctx.IsEmpty() {
		ctx = interval.Full(w.fields[f].Max)
	}
	key := impliesKey{aID: na.ID, bID: nb.ID, field: f, ctx: ctx.Key()}
	if w.memo[key] {
		return true
	}

	aTests := !na.IsTerminal() && na.Field == f
	bTests := !nb.IsTerminal() && nb.Field == f
	if !aTests && !bTests {
		// Neither diagram distinguishes values of field f here: any value
		// in the context works for the witness; move to the next field.
		w.witness[f] = ctx.Min()
		if !w.ok(na, nb, f+1, interval.Set{}) {
			return false
		}
		w.memo[key] = true
		return true
	}

	// Partition the context by the two predicates. Each non-empty region
	// decides both, so both nodes descend; at least one strictly advances,
	// which bounds the same-field recursion by the diagrams' depth.
	full := interval.Full(w.fields[f].Max)
	aSet, bSet := full, full
	if aTests {
		aSet = na.Set
	}
	if bTests {
		bSet = nb.Set
	}
	inA := ctx.Intersect(aSet)
	outA := ctx.Minus(aSet, w.fields[f].Max)
	for _, region := range []interval.Set{
		inA.Intersect(bSet),
		inA.Minus(bSet, w.fields[f].Max),
		outA.Intersect(bSet),
		outA.Minus(bSet, w.fields[f].Max),
	} {
		if region.IsEmpty() {
			continue
		}
		ra, rb := na, nb
		if aTests {
			if region.SubsetOf(na.Set) {
				ra = na.True
			} else {
				ra = na.False
			}
		}
		if bTests {
			if region.SubsetOf(nb.Set) {
				rb = nb.True
			} else {
				rb = nb.False
			}
		}
		if !w.ok(ra, rb, f, region) {
			return false
		}
	}
	w.memo[key] = true
	return true
}
