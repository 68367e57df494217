package compiler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"camus/internal/bdd"
	"camus/internal/interval"
	"camus/internal/spec"
)

// assignStates numbers the BDD nodes that the pipeline must be able to
// name. The In nodes of the field components — the root (initial state)
// and every other non-terminal target of a cross-component edge — are
// states. The terminals are not: a terminal is an action, and the row that
// reaches it decides the packet with it, so a terminal is numbered as its
// action set's index in Program.Actions. Both numberings are breadth-first
// from the root, so they are deterministic and small, and a root that is
// not a terminal is state 0, the initial state. index is by node ID,
// -1 for the nodes that get neither; leaves lists the terminals in action
// order (one per action class: the builder has already merged the
// terminals that do the same thing).
func assignStates(b *bdd.BDD) (index, leaves []int, states int) {
	index, leaves = make([]int, b.NumNodes()), make([]int, 0, len(b.Terminals()))
	for i := range index {
		index[i] = -1
	}
	assign := func(n *bdd.Node) {
		switch {
		case index[n.ID] >= 0:
		case n.IsTerminal():
			index[n.ID] = len(leaves)
			leaves = append(leaves, n.ID)
		default:
			index[n.ID] = states
			states++
		}
	}
	assign(b.Root)
	queue := append(make([]*bdd.Node, 0, b.NumNodes()), b.Root)
	seen := make([]bool, b.NumNodes())
	seen[b.Root.ID] = true
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		if n.IsTerminal() {
			continue
		}
		for _, child := range [2]*bdd.Node{n.True, n.False} {
			if child.Field != n.Field { // cross-component edge
				assign(child)
			}
			if !seen[child.ID] {
				seen[child.ID] = true
				queue = append(queue, child)
			}
		}
	}
	return index, leaves, states
}

// pathEntry is an In→Out transition produced by Algorithm 1 before
// lowering to physical entries: from state (the In node's state), for
// field values in set, go to the Out node's target.
type pathEntry struct {
	fromState int
	set       interval.Set
	to        int
}

// algorithm1 computes, for each field, the component transition entries by
// enumerating all In→Out paths within the field's subgraph and
// intersecting the predicates along each path (Algorithm 1 in the paper),
// then uniting the paths that share both ends: an ordered chain of tests
// cannot itself merge two cells of the domain that reach one node by
// different edges, but a table entry does not care how its range was cut.
//
// The BDD builder's reduction (iii) guarantees that the ranges of the
// paths leaving an In node are disjoint and partition the field domain,
// and that their number is bounded by the cells the field's predicates cut
// the domain into — the paper's at-most-quadratic bound on In→Out paths.
func algorithm1(b *bdd.BDD, index []int) [][]pathEntry {
	perField := make([][]pathEntry, len(b.Fields))
	// In nodes of component f: nodes with Field == f that carry a state.
	inNodes := make([][]*bdd.Node, len(b.Fields))
	for _, n := range b.Nodes() {
		if !n.IsTerminal() && index[n.ID] >= 0 {
			inNodes[n.Field] = append(inNodes[n.Field], n)
		}
	}
	at := make([]int32, len(index)) // Out node ID -> 1 + its entry among the In node at hand's
	// An In node has a path to each Out node it reaches (reduction (iii)
	// leaves no test whose branch no value takes), so counting those, the
	// In node's state stamped on what it reaches, sizes a field's paths.
	var reach func(f int, stamp int32, n *bdd.Node) int
	reach = func(f int, stamp int32, n *bdd.Node) int {
		if at[n.ID] == stamp {
			return 0
		}
		at[n.ID] = stamp
		if n.Field != f {
			return 1
		}
		return reach(f, stamp, n.True) + reach(f, stamp, n.False)
	}
	for f := range b.Fields {
		paths := 0
		for _, u := range inNodes[f] {
			stamp := int32(-1 - index[u.ID])
			paths += reach(f, stamp, u.True) + reach(f, stamp, u.False)
		}
		perField[f] = make([]pathEntry, 0, paths)
	}
	clear(at)
	var outs []int                  // per entry of the In node at hand, its Out node ID
	var cells [][]interval.Interval // and the ranges that reach it
	var stack []interval.Interval   // the ranges of the walk's paths, a true branch's above its parent's
	for f := range b.Fields {
		sort.Slice(inNodes[f], func(i, j int) bool {
			return index[inNodes[f][i].ID] < index[inNodes[f][j].ID]
		})
		for _, u := range inNodes[f] {
			from, first := index[u.ID], len(perField[f])
			outs, cells = outs[:0], cells[:0]
			// walk takes the paths from n, the values r reach it with on top of
			// the stack, true branch first. A false branch takes r's place.
			var walk func(n *bdd.Node, r []interval.Interval)
			walk = func(n *bdd.Node, r []interval.Interval) {
				for len(r) > 0 && n.Field == f {
					top := len(stack)
					stack = interval.AppendIntersect(stack, r, n.Set.Intervals())
					walk(n.True, stack[top:len(stack):len(stack)])
					stack = interval.AppendMinus(stack[:top], r, n.Set.Intervals())
					base := top - len(r)
					stack = append(stack[:base], stack[top:]...)
					n, r = n.False, stack[base:len(stack):len(stack)]
				}
				if len(r) > 0 { // left the component (later field or terminal)
					if at[n.ID] == 0 {
						to := index[n.ID]
						if n.IsTerminal() {
							to = decision(to)
						}
						perField[f] = append(perField[f], pathEntry{fromState: from, to: to})
						outs = append(outs, n.ID)
						cells = slices.Grow(cells, 1)[:len(cells)+1] // reusing the ranges of an earlier In node's entry
						cells[len(cells)-1] = cells[len(cells)-1][:0]
						at[n.ID] = int32(len(cells))
					}
					cells[at[n.ID]-1] = append(cells[at[n.ID]-1], r...)
				}
				stack = stack[:len(stack)-len(r)]
			}
			stack = append(stack[:0], interval.Interval{Lo: 0, Hi: b.Fields[f].Max})
			walk(u, stack)
			for i, ivs := range cells {
				perField[f][first+i].set = interval.FromIntervals(ivs...)
				at[outs[i]] = 0
			}
		}
	}
	return perField
}

// lowerEntries converts a field's path entries into physical table
// entries. Because the path ranges leaving an In state partition the
// domain, one path per state needs no rows of its own: the table's default
// takes it. The path to noop, the action set of the terminal that does
// nothing (-1 when there is none), can be left to a miss — it keeps the In
// state, for which no later table has a row, so no row decides the packet
// and the leaf drops it as that terminal would. Any other path can be left
// to a low-priority wildcard (the '*' rows of Fig. 4), which saves its
// intervals less one. The default goes to whichever saves the most rows, a
// tie to the miss; a wildcard needs a path of at least two intervals. The
// remaining paths become exact entries for points and range entries
// otherwise. Exact-match fields must end up with no range entries: there,
// an interval of values that conjunctions test for equality one by one —
// adjacent == rules that do the same thing, merged — is as many exact
// entries, no more than the == rules that made it. field is f's index in
// the conjunctions.
func lowerEntries(f FieldInfo, field int, conjs []bdd.Conj, paths []pathEntry, noop int) ([]Entry, error) {
	var named *interval.Set // the values conjs test f for equality with, once needed
	exact := isExactKind(f)
	// algorithm1 emits an In state's paths together, In states ascending.
	// The first pass picks each state's default and counts the rows, the
	// second writes them.
	type choice struct{ n, def, miss int } // a state's paths, and those the default and the miss take
	var choices []choice
	rows := 0
	for rest := paths; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].fromState == rest[0].fromState {
			n++
		}
		var ps []pathEntry
		ps, rest = rest[:n], rest[n:]
		// The candidates: the path to noop, and the path with the most
		// intervals (the residual) among the others. A lone full-domain path
		// is trivially the wildcard.
		def, miss := -1, -1
		maxIvs := 1
		for i, pe := range ps {
			n := len(pe.set.Intervals())
			a, decides := Decides(pe.to)
			switch {
			case decides && a == noop:
				miss = i
			case pe.set.IsFull(f.Max):
				def = i
			case n > maxIvs:
				maxIvs = n
				def = i
			}
		}
		forced := false
		if exact {
			// An exact table cannot hold a range: the path that has one must
			// be the default. When more than one has, the one whose ranges
			// are not all values tested for equality is.
			ranged, ok := soleRange(ps, nil)
			if !ok {
				if named == nil {
					s := pointsNamed(conjs, field)
					named = &s
				}
				ranged, ok = soleRange(ps, named)
			}
			if !ok {
				return nil, fmt.Errorf("field %s is declared exact but subscriptions induce range predicates on it", f.Name)
			}
			if ranged >= 0 {
				def, forced = ranged, true
			}
		}
		if miss >= 0 && (def == miss || !forced && maxIvs-1 <= len(ps[miss].set.Intervals())) {
			def = -1
		}
		choices = append(choices, choice{n, def, miss})
		for i, pe := range ps {
			switch {
			case i == def:
				rows++
			case i == miss && def < 0:
			default:
				for _, iv := range pe.set.Intervals() {
					if exact {
						rows += int(iv.Hi - iv.Lo + 1)
					} else {
						rows++
					}
				}
			}
		}
	}
	if rows == 0 {
		return nil, nil
	}
	out := make([]Entry, 0, rows)
	for _, c := range choices {
		var ps []pathEntry
		ps, paths = paths[:c.n], paths[c.n:]
		for i, pe := range ps {
			st := pe.fromState
			if i == c.def {
				out = append(out, Entry{State: st, Kind: EntryWild, Next: pe.to, Priority: 0})
				continue
			}
			if i == c.miss && c.def < 0 {
				continue // the miss takes it
			}
			for _, iv := range pe.set.Intervals() {
				switch {
				case iv.IsPoint():
					out = append(out, Entry{State: st, Kind: EntryExact, Lo: iv.Lo, Hi: iv.Hi, Next: pe.to, Priority: 1})
				case exact:
					for v := iv.Lo; ; v++ {
						out = append(out, Entry{State: st, Kind: EntryExact, Lo: v, Hi: v, Next: pe.to, Priority: 1})
						if v == iv.Hi {
							break
						}
					}
				default:
					out = append(out, Entry{State: st, Kind: EntryRange, Lo: iv.Lo, Hi: iv.Hi, Next: pe.to, Priority: 1})
				}
			}
		}
	}
	sortEntries(out)
	return out, nil
}

// soleRange finds, among an exact field's paths out of one state, the one
// path with a range — one not all values in named, when named is not nil —
// or -1 when there is none; ok is false when there are more.
func soleRange(ps []pathEntry, named *interval.Set) (ranged int, ok bool) {
	ranged = -1
	for i, pe := range ps {
		if !slices.ContainsFunc(pe.set.Intervals(), func(iv interval.Interval) bool {
			return !iv.IsPoint() && (named == nil || !interval.Range(iv.Lo, iv.Hi).SubsetOf(*named))
		}) {
			continue
		}
		if ranged >= 0 {
			return 0, false
		}
		ranged = i
	}
	return ranged, true
}

// pointsNamed is the set of values the conjunctions test field for
// equality with.
func pointsNamed(conjs []bdd.Conj, field int) interval.Set {
	var pts []interval.Interval
	for _, c := range conjs {
		for _, k := range c.Constraints {
			if k.Field == field && pointsOnly(k.Set) {
				pts = append(pts, k.Set.Intervals()...)
			}
		}
	}
	return interval.FromIntervals(pts...)
}

func isExactKind(f FieldInfo) bool {
	return f.Match == spec.MatchExact
}

func pointsOnly(s interval.Set) bool {
	for _, iv := range s.Intervals() {
		if !iv.IsPoint() {
			return false
		}
	}
	return true
}

func sortEntries(entries []Entry) {
	slices.SortFunc(entries, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(a.State, b.State), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Lo, b.Lo), cmp.Compare(a.Next, b.Next))
	})
}
