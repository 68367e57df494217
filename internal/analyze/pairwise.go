package analyze

import (
	"fmt"
	"slices"

	"camus/internal/bdd"
	"camus/internal/interval"
)

// checkPairwise runs the quadratic checks — CAM003 duplicates, CAM002
// shadowing/subsumption, CAM005 action conflicts — with two layers of
// pruning so realistic rule sets stay near-linear:
//
//  1. rules are bucketed by their point value on a discriminator field
//     (the field most rules pin with ==, e.g. the stock symbol); rules in
//     different buckets are provably disjoint, so only intra-bucket and
//     wildcard pairs are examined at all;
//  2. each examined pair is decided on the rules' own conjunctions, merge
//     walks over their constraints, and only containment in a union those
//     walks cannot settle builds BDDs for bdd.Implies.
func (a *analysis) checkPairwise() {
	// Duplicates first: exact, linear, and every pair inside one duplicate
	// class is then excluded from shadowing, so each copy is reported once.
	dupOf := a.checkDuplicates()

	eligible := slices.DeleteFunc(slices.Clone(a.infos), func(r *ruleInfo) bool { return r.unsat })
	if len(eligible) < 2 {
		return
	}

	disc := a.discriminator(eligible)
	buckets, wild := bucketize(eligible, disc)

	budget := a.opts.maxPairs()
	examined := 0
	shadowed := make(map[int]bool)   // rule index → CAM002 already reported
	conflicted := make(map[int]bool) // rule index → CAM005 already reported

	class := func(r *ruleInfo) int { // the first rule of r's duplicate class
		if orig, isDup := dupOf[r.index]; isDup {
			return orig
		}
		return r.index
	}
	pair := func(x, y *ruleInfo) bool {
		if x.index > y.index {
			x, y = y, x
		}
		examined++
		if examined > budget {
			return false
		}
		if class(x) == class(y) {
			return true // reported as CAM003
		}
		a.checkPair(x, y, shadowed, conflicted)
		return true
	}

	// Every pair inside a bucket, each bucket's rules with the wildcards,
	// then every pair of wildcards: false once the budget is spent.
	all := func() bool {
		for _, b := range buckets {
			for k, x := range b {
				for _, y := range b[k+1:] {
					if !pair(x, y) {
						return false
					}
				}
			}
			for _, x := range b {
				for _, w := range wild {
					if !pair(x, w) {
						return false
					}
				}
			}
		}
		for k, x := range wild {
			for _, y := range wild[k+1:] {
				if !pair(x, y) {
					return false
				}
			}
		}
		return true
	}
	if !all() {
		a.report(Diagnostic{Code: CodeLimit, Severity: SevInfo, Rule: -1,
			Msg: fmt.Sprintf("pairwise analysis truncated after %d pairs (MaxPairs=%d); CAM002/CAM003/CAM005 coverage is incomplete", budget, budget)})
	}
}

// checkDuplicates reports CAM003 for rules whose canonical condition and
// action set both match an earlier rule, returning the dup→original map.
func (a *analysis) checkDuplicates() map[int]int {
	first := make(map[string]*ruleInfo)
	dupOf := make(map[int]int)
	for _, info := range a.infos {
		if info.unsat {
			continue
		}
		key := info.condKey + " : " + info.actKey
		orig, ok := first[key]
		if !ok {
			first[key] = info
			continue
		}
		dupOf[info.index] = orig.index
		line, col := info.pos.Line, info.pos.Col
		oline, ocol := orig.pos.Line, orig.pos.Col
		a.report(Diagnostic{Code: CodeDuplicate, Severity: SevWarning, Rule: info.index,
			Line: line, Col: col,
			Msg: fmt.Sprintf("duplicate rule: identical condition and actions as rule %d", orig.index),
			Related: []Related{{Rule: orig.index, Line: oline, Col: ocol,
				Msg: fmt.Sprintf("rule %d declared here", orig.index)}}})
	}
	return dupOf
}

// checkPair examines one candidate pair (x.index < y.index) for CAM002
// and CAM005.
func (a *analysis) checkPair(x, y *ruleInfo, shadowed, conflicted map[int]bool) {
	// CAM002: a rule whose condition is contained in another rule's and
	// whose effects the other rule already produces contributes nothing.
	if !shadowed[y.index] && effectSubset(y, x) && a.condImplies(y, x) {
		shadowed[y.index] = true
		a.reportShadow(y, x)
	} else if !shadowed[x.index] && effectSubset(x, y) && a.condImplies(x, y) {
		shadowed[x.index] = true
		a.reportShadow(x, y)
	}

	// CAM005: overlapping conditions where one side forwards and the
	// other drops. The merge semantics resolve it (forward wins), but the
	// drop rule's author almost certainly expected otherwise.
	if conflicted[y.index] {
		return
	}
	fwdDrop := (x.drops && len(y.ports) > 0) || (y.drops && len(x.ports) > 0)
	if fwdDrop && a.condOverlaps(x, y) {
		conflicted[y.index] = true
		line, col := y.pos.Line, y.pos.Col
		oline, ocol := x.pos.Line, x.pos.Col
		dropper, fwder := x, y
		if y.drops && len(x.ports) > 0 {
			dropper, fwder = y, x
		}
		a.report(Diagnostic{Code: CodeConflict, Severity: SevWarning, Rule: y.index,
			Line: line, Col: col,
			Msg: fmt.Sprintf("conflicting actions for overlapping conditions: rule %d drops while rule %d forwards (forward wins when both match)", dropper.index, fwder.index),
			Related: []Related{{Rule: x.index, Line: oline, Col: ocol,
				Msg: fmt.Sprintf("overlaps rule %d declared here", x.index)}}})
	}
}

func (a *analysis) reportShadow(inner, outer *ruleInfo) {
	line, col := inner.pos.Line, inner.pos.Col
	oline, ocol := outer.pos.Line, outer.pos.Col
	a.report(Diagnostic{Code: CodeShadowed, Severity: SevWarning, Rule: inner.index,
		Line: line, Col: col,
		Msg: fmt.Sprintf("rule shadowed by rule %d: its condition is subsumed and its actions add nothing", outer.index),
		Related: []Related{{Rule: outer.index, Line: oline, Col: ocol,
			Msg: fmt.Sprintf("subsuming rule %d declared here", outer.index)}}})
}

// effectSubset reports whether everything rule j does, rule i already
// does: j's forward ports and state updates are subsets of i's, and j
// only drops if i drops too.
func effectSubset(j, i *ruleInfo) bool {
	if j.drops && !i.drops {
		return false
	}
	if !intsSubset(j.ports, i.ports) {
		return false
	}
	for k := range j.updates {
		if !i.updates[k] {
			return false
		}
	}
	return true
}

// intsSubset reports a ⊆ b for sorted, deduplicated slices.
func intsSubset(a, b []int) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
	}
	return true
}

// condImplies reports whether j's condition implies i's (every packet
// matching j matches i). A conjunction of j within one of i's is covered; one
// that meets none of i's is a witness against. Only a conjunction of j that
// meets a union of i's without lying in any one of them builds the two
// diagrams for bdd.Implies.
func (a *analysis) condImplies(j, i *ruleInfo) bool {
	covered := true
	for _, cj := range j.conjs {
		in, meets := false, false
		for _, ci := range i.conjs {
			if a.within(cj, ci) {
				in = true
				break
			}
			meets = meets || conjOverlap(cj, ci)
		}
		if in {
			continue
		}
		if !meets || len(i.conjs) == 1 {
			return false
		}
		covered = false
	}
	if covered {
		return true
	}
	dj, errJ := bdd.Build(a.fields, payloadConjs(j.conjs))
	di, errI := bdd.Build(a.fields, payloadConjs(i.conjs))
	if errJ != nil || errI != nil {
		return false // conservatively: not implied
	}
	ok, _, err := bdd.Implies(dj, di)
	return ok && err == nil
}

// payloadConjs is a rule's conjunctions as the diagram's, one payload.
func payloadConjs(conjs [][]bdd.Constraint) []bdd.Conj {
	out := make([]bdd.Conj, len(conjs))
	for k, cons := range conjs {
		out[k] = bdd.Conj{Constraints: cons}
	}
	return out
}

// within reports whether conjunction x lies in conjunction y: every field y
// constrains, x constrains to a subset, a field x leaves free being its full
// domain. Both are satisfiable and sorted by field.
func (a *analysis) within(x, y []bdd.Constraint) bool {
	k := 0
	for _, cy := range y {
		for k < len(x) && x[k].Field < cy.Field {
			k++
		}
		if k < len(x) && x[k].Field == cy.Field {
			if !x[k].Set.SubsetOf(cy.Set) {
				return false
			}
		} else if !interval.Full(a.fields[cy.Field].Max).SubsetOf(cy.Set) {
			return false
		}
	}
	return true
}

// condOverlaps reports whether some packet matches both rules: overlap
// decomposes over conjunction pairs, and two conjunctions meet unless some
// field they both constrain keeps them apart.
func (a *analysis) condOverlaps(x, y *ruleInfo) bool {
	for _, cx := range x.conjs {
		for _, cy := range y.conjs {
			if conjOverlap(cx, cy) {
				return true
			}
		}
	}
	return false
}

func conjOverlap(a, b []bdd.Constraint) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Field < b[j].Field:
			i++
		case a[i].Field > b[j].Field:
			j++
		default:
			if !a[i].Set.Overlaps(b[j].Set) {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// pinned reports the value every conjunction of a rule pins field f to.
func (info *ruleInfo) pinned(f int) (v uint64, ok bool) {
	for k, cons := range info.conjs {
		n, found := slices.BinarySearchFunc(cons, f, func(c bdd.Constraint, f int) int { return c.Field - f })
		if !found {
			return 0, false
		}
		p, point := cons[n].Set.IsPoint()
		if !point || (k > 0 && p != v) {
			return 0, false
		}
		v = p
	}
	return v, len(info.conjs) > 0
}

// discriminator picks the field that the most rules constrain to a
// single point — the best bucketing key.
func (a *analysis) discriminator(rules []*ruleInfo) int {
	counts := make(map[int]int)
	for _, info := range rules {
		for _, c := range info.conjs[0] { // a field every conjunction pins is in the first
			if _, ok := info.pinned(c.Field); ok {
				counts[c.Field]++
			}
		}
	}
	best, bestN := -1, 0
	for f, n := range counts {
		if n > bestN || (n == bestN && (best < 0 || f < best)) {
			best, bestN = f, n
		}
	}
	return best
}

// bucketize groups rules by their point value on the discriminator.
// Rules without a point there go to the wildcard list, which must be
// compared against everything.
func bucketize(rules []*ruleInfo, disc int) (buckets [][]*ruleInfo, wild []*ruleInfo) {
	if disc < 0 {
		return nil, rules
	}
	byVal := make(map[uint64][]*ruleInfo)
	var order []uint64
	for _, info := range rules {
		if v, ok := info.pinned(disc); ok {
			if _, seen := byVal[v]; !seen {
				order = append(order, v)
			}
			byVal[v] = append(byVal[v], info)
			continue
		}
		wild = append(wild, info)
	}
	for _, v := range order {
		buckets = append(buckets, byVal[v])
	}
	return buckets, wild
}
