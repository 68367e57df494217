package analyze

import (
	"fmt"

	"camus/internal/bdd"
	"camus/internal/interval"
)

// checkPairwise runs the quadratic checks — CAM003 duplicates, CAM002
// shadowing/subsumption, CAM005 action conflicts — with three layers of
// pruning so realistic rule sets stay near-linear:
//
//  1. rules are bucketed by their point value on a discriminator field
//     (the field most rules pin with ==, e.g. the stock symbol); rules in
//     different buckets are provably disjoint, so only intra-bucket and
//     wildcard pairs are examined at all;
//  2. each examined pair goes through an interval projection pre-filter
//     (exact projections, so for single-conjunction rules the filter IS
//     the containment/overlap decision);
//  3. only multi-conjunction containment falls through to the BDD oracle,
//     built in the shared Builder arena so sub-BDDs memoize across pairs.
func (a *analysis) checkPairwise() {
	// Duplicates first: exact, linear, and each duplicate pair is then
	// excluded from shadowing so it is reported exactly once.
	dupOf := a.checkDuplicates()

	eligible := make([]*ruleInfo, 0, len(a.infos))
	for _, info := range a.infos {
		if info.unsat {
			continue
		}
		eligible = append(eligible, info)
	}
	if len(eligible) < 2 {
		return
	}

	disc := a.discriminator(eligible)
	buckets, wild := bucketize(eligible, disc)

	budget := a.opts.maxPairs()
	examined := 0
	shadowed := make(map[int]bool)   // rule index → CAM002 already reported
	conflicted := make(map[int]bool) // rule index → CAM005 already reported

	pair := func(x, y *ruleInfo) bool {
		if x.index > y.index {
			x, y = y, x
		}
		examined++
		if examined > budget {
			return false
		}
		if orig, isDup := dupOf[y.index]; isDup && orig == x.index {
			return true // reported as CAM003
		}
		a.checkPair(x, y, shadowed, conflicted)
		return true
	}

	truncated := false
loop:
	for _, b := range buckets {
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				if !pair(b[i], b[j]) {
					truncated = true
					break loop
				}
			}
		}
		for _, x := range b {
			for _, w := range wild {
				if !pair(x, w) {
					truncated = true
					break loop
				}
			}
		}
	}
	if !truncated {
		for i := 0; i < len(wild); i++ {
			for j := i + 1; j < len(wild); j++ {
				if !pair(wild[i], wild[j]) {
					truncated = true
					break
				}
			}
			if truncated {
				break
			}
		}
	}
	if truncated {
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
// matching j matches i). The projection pre-filter is a sound necessary
// condition; when i is a single conjunction it is also sufficient, so
// only containment in a genuine union of conjunctions pays for a BDD.
func (a *analysis) condImplies(j, i *ruleInfo) bool {
	for f, si := range i.proj {
		sj, ok := j.proj[f]
		if !ok {
			sj = interval.Full(a.fields[f].Max)
		}
		if !sj.SubsetOf(si) {
			return false
		}
	}
	if len(i.conjs) == 1 {
		return true // the projection test was exact
	}
	return a.bddImplies(j, i)
}

// bddImplies decides containment exactly: build one BDD over both rules'
// conjunctions (payload 0 = j, payload 1 = i) in the shared arena, then
// check that no terminal is reachable for j alone.
func (a *analysis) bddImplies(j, i *ruleInfo) bool {
	conjs := make([]bdd.Conj, 0, len(j.conjs)+len(i.conjs))
	for _, cons := range j.conjs {
		conjs = append(conjs, bdd.Conj{Payload: 0, Constraints: cons})
	}
	for _, cons := range i.conjs {
		conjs = append(conjs, bdd.Conj{Payload: 1, Constraints: cons})
	}
	b, err := a.builder.Build(a.fields, conjs)
	if err != nil {
		return false // conservatively: not implied
	}
	for _, t := range b.Terminals() {
		hasJ, hasI := false, false
		for _, p := range a.sets.SetOf(t.Class) {
			switch p {
			case 0:
				hasJ = true
			case 1:
				hasI = true
			}
		}
		if hasJ && !hasI {
			return false
		}
	}
	return true
}

// condOverlaps reports whether some packet matches both rules. Overlap
// decomposes over conjunction pairs, so interval reasoning is exact here
// and no BDD is needed.
func (a *analysis) condOverlaps(x, y *ruleInfo) bool {
	// Rule-level projection pre-filter.
	for f, sx := range x.proj {
		if sy, ok := y.proj[f]; ok && !sx.Overlaps(sy) {
			return false
		}
	}
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

// discriminator picks the field that the most rules constrain to a
// single point — the best bucketing key.
func (a *analysis) discriminator(rules []*ruleInfo) int {
	counts := make(map[int]int)
	for _, info := range rules {
		for f, s := range info.proj {
			if _, ok := s.IsPoint(); ok {
				counts[f]++
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
		if s, ok := info.proj[disc]; ok {
			if v, isPoint := s.IsPoint(); isPoint {
				if _, seen := byVal[v]; !seen {
					order = append(order, v)
				}
				byVal[v] = append(byVal[v], info)
				continue
			}
		}
		wild = append(wild, info)
	}
	for _, v := range order {
		buckets = append(buckets, byVal[v])
	}
	return buckets, wild
}
