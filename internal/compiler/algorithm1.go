package compiler

import (
	"fmt"
	"sort"

	"camus/internal/bdd"
	"camus/internal/interval"
	"camus/internal/spec"
)

// assignStates numbers the BDD nodes that the pipeline must be able to
// name: the root (initial state) and every node that is the target of a
// cross-component edge — i.e. every In node of every field component plus
// every reachable terminal. Numbering is breadth-first from the root so
// state IDs are deterministic and small. states is indexed by node ID and
// holds -1 for the nodes that get no state; leaves lists the terminals in
// state order (one per action class: the builder has already merged the
// terminals that do the same thing).
func assignStates(b *bdd.BDD) (states, leaves []int) {
	states = make([]int, b.NumNodes())
	for i := range states {
		states[i] = -1
	}
	next := 0
	assign := func(n *bdd.Node) {
		if states[n.ID] >= 0 {
			return
		}
		if n.IsTerminal() {
			leaves = append(leaves, n.ID)
		}
		states[n.ID] = next
		next++
	}
	assign(b.Root)
	queue := []*bdd.Node{b.Root}
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
	return states, leaves
}

// pathEntry is an In→Out transition produced by Algorithm 1 before
// lowering to physical entries: from state (the In node's state), for
// field values in set, go to the Out node's state.
type pathEntry struct {
	fromState int
	set       interval.Set
	toState   int
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
func algorithm1(b *bdd.BDD, states []int) [][]pathEntry {
	perField := make([][]pathEntry, len(b.Fields))
	// In nodes of component f: nodes with Field == f that carry a state.
	inNodes := make([][]*bdd.Node, len(b.Fields))
	for _, n := range b.Nodes() {
		if !n.IsTerminal() && states[n.ID] >= 0 {
			inNodes[n.Field] = append(inNodes[n.Field], n)
		}
	}
	at := make([]int, len(states))  // Out state -> 1 + its entry among the In node at hand's
	var cells [][]interval.Interval // per entry of the In node at hand, the ranges that reach its Out state
	for f := range b.Fields {
		sort.Slice(inNodes[f], func(i, j int) bool {
			return states[inNodes[f][i].ID] < states[inNodes[f][j].ID]
		})
		max := b.Fields[f].Max
		for _, u := range inNodes[f] {
			from, first := states[u.ID], len(perField[f])
			cells = cells[:0]
			var walk func(n *bdd.Node, r interval.Set)
			walk = func(n *bdd.Node, r interval.Set) {
				if r.IsEmpty() {
					return
				}
				if n.Field != f { // left the component (later field or terminal)
					to := states[n.ID]
					if at[to] == 0 {
						perField[f] = append(perField[f], pathEntry{fromState: from, toState: to})
						cells = append(cells, nil)
						at[to] = len(cells)
					}
					cells[at[to]-1] = append(cells[at[to]-1], r.Intervals()...)
					return
				}
				walk(n.True, r.Intersect(n.Set))
				walk(n.False, r.Minus(n.Set, max))
			}
			walk(u.True, interval.Full(max).Intersect(u.Set))
			walk(u.False, interval.Full(max).Minus(u.Set, max))
			for i, ivs := range cells {
				pe := &perField[f][first+i]
				pe.set = interval.FromIntervals(ivs...)
				at[pe.toState] = 0
			}
		}
	}
	return perField
}

// lowerEntries converts a field's path entries into physical table
// entries. Because the path ranges leaving an In state partition the
// domain, one path per state can always be lowered to a low-priority
// wildcard default (the '*' rows of Fig. 4); the builder picks the path
// with the most intervals, which is the residual "everything else" set.
// The remaining paths become exact entries for points and range entries
// otherwise. Exact-match fields must end up with no range entries.
func lowerEntries(f FieldInfo, paths []pathEntry) ([]Entry, error) {
	// algorithm1 emits an In state's paths together, In states ascending.
	var out []Entry
	for len(paths) > 0 {
		st := paths[0].fromState
		n := 1
		for n < len(paths) && paths[n].fromState == st {
			n++
		}
		var ps []pathEntry
		ps, paths = paths[:n], paths[n:]
		// Choose the default path: the one with the most intervals (the
		// residual). A lone full-domain path is trivially the default.
		def := -1
		maxIvs := 1
		for i, pe := range ps {
			n := len(pe.set.Intervals())
			if pe.set.IsFull(f.Max) {
				def = i
				break
			}
			if n > maxIvs {
				maxIvs = n
				def = i
			}
		}
		if isExactKind(f) {
			// An exact table cannot hold a range: the path that has one must
			// be the default.
			ranged := -1
			for i, pe := range ps {
				if !pointsOnly(pe.set) {
					if ranged >= 0 {
						return nil, fmt.Errorf("field %s is declared exact but subscriptions induce range predicates on it", f.Name)
					}
					ranged = i
				}
			}
			if ranged >= 0 {
				def = ranged
			}
		}
		for i, pe := range ps {
			if i == def {
				out = append(out, Entry{State: st, Kind: EntryWild, Next: pe.toState, Priority: 0})
				continue
			}
			for _, iv := range pe.set.Intervals() {
				kind := EntryRange
				if iv.IsPoint() {
					kind = EntryExact
				}
				out = append(out, Entry{State: st, Kind: kind, Lo: iv.Lo, Hi: iv.Hi, Next: pe.toState, Priority: 1})
			}
		}
	}
	sortEntries(out)
	return out, nil
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
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.State != b.State {
			return a.State < b.State
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Lo != b.Lo {
			return a.Lo < b.Lo
		}
		return a.Next < b.Next
	})
}
