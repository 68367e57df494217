package analyze

import (
	"fmt"
	"sort"
	"strings"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/interval"
	"camus/internal/lang"
	"camus/internal/spec"
)

// analysis carries the state of one run: the field table (the compiler's
// own — spec query fields plus synthetic aggregate/state fields — so
// satisfiability here is compilability there), the per-rule resolved
// forms, and the accumulated diagnostics.
type analysis struct {
	sp    *spec.Spec
	rules []lang.Rule
	opts  Options

	tab          *compiler.FieldTable
	builder      *bdd.Builder // shared arena for every BDD containment test
	bddFieldList []bdd.Field  // lazily built from the field table

	infos []*ruleInfo
	diags []Diagnostic
}

// ruleInfo is the resolved form of one rule.
type ruleInfo struct {
	rule  lang.Rule
	index int // position in the analyzed set

	bad   bool // had error-severity front-end findings; excluded downstream
	unsat bool // CAM001: no satisfiable conjunction

	conjs   []resolvedConj
	condKey string // canonical condition key (CAM003)
	actKey  string // canonical action-list key (CAM003)

	// proj is the exact per-field projection of the condition: the union
	// of each satisfiable conjunction's set, with fields missing from a
	// conjunction treated as the full domain. Missing keys mean "full
	// domain" at the rule level too.
	proj map[int]interval.Set

	// Effect summary for subsumption/conflict checks.
	ports   []int           // sorted union of fwd ports
	drops   bool            // has an explicit drop action
	updates map[string]bool // explicit state-update action keys
}

// resolvedConj is one satisfiable conjunction: per-field intersected
// interval sets, sorted by field index. Fields not present are
// unconstrained.
type resolvedConj struct {
	fields []int
	sets   []interval.Set
	pos    lang.Pos // first atom's position
}

func (c resolvedConj) set(field int) (interval.Set, bool) {
	for i, f := range c.fields {
		if f == field {
			return c.sets[i], true
		}
		if f > field {
			break
		}
	}
	return interval.Set{}, false
}

func newAnalysis(sp *spec.Spec, rules []lang.Rule, opts Options) *analysis {
	return &analysis{
		sp: sp, rules: rules, opts: opts,
		tab:     compiler.NewFieldTable(sp),
		builder: bdd.NewBuilder(),
	}
}

func (a *analysis) report(d Diagnostic) { a.diags = append(a.diags, d) }

// rulePos falls back from an atom position to the rule position so
// programmatically built rules still get a stable anchor.
func rulePos(r lang.Rule, p lang.Pos) (line, col int) {
	if p.IsValid() {
		return p.Line, p.Col
	}
	return r.Pos.Line, r.Pos.Col
}

// isRangeOp reports whether the operator needs range/ternary matching
// (everything but equality).
func isRangeOp(op lang.CmpOp) bool { return op != lang.OpEq }

// checkRules runs the per-rule front end: CAM004 spec checks and CAM001
// satisfiability, producing each rule's resolved form for the pairwise
// and resource passes.
func (a *analysis) checkRules() {
	a.infos = make([]*ruleInfo, len(a.rules))
	for i, r := range a.rules {
		a.infos[i] = a.checkRule(i, r)
	}
}

func (a *analysis) checkRule(index int, r lang.Rule) *ruleInfo {
	info := &ruleInfo{rule: r, index: index, proj: make(map[int]interval.Set), updates: make(map[string]bool)}
	line, col := rulePos(r, lang.Pos{})

	dnf, err := lang.ToDNF(r)
	if err != nil {
		a.report(Diagnostic{Code: CodeParse, Severity: SevError, Rule: index, Line: line, Col: col,
			Msg: fmt.Sprintf("rule cannot be normalized: %v", err)})
		info.bad = true
		return info
	}

	// Resolve every atom; collect CAM004s (deduplicated per position+msg
	// — DNF expansion can replicate an atom across conjunctions).
	type camKey struct {
		line, col int
		msg       string
	}
	seen := make(map[camKey]bool)
	reportType := func(p lang.Pos, sev Severity, related []Related, format string, args ...interface{}) {
		l, c := rulePos(r, p)
		msg := fmt.Sprintf(format, args...)
		k := camKey{l, c, msg}
		if seen[k] {
			return
		}
		seen[k] = true
		if sev == SevError {
			info.bad = true
		}
		a.report(Diagnostic{Code: CodeType, Severity: sev, Rule: index, Line: l, Col: c, Msg: msg, Related: related})
	}

	var keys []string
	for _, conj := range dnf.Conjunctions {
		rc, ok := a.resolveConj(r, conj, reportType)
		if !ok {
			continue // unresolvable or unsatisfiable
		}
		info.conjs = append(info.conjs, rc)
		keys = append(keys, conjKey(rc))
	}

	// Effect summary from the rule's explicit actions.
	for _, act := range r.Actions {
		switch act.Kind {
		case lang.ActFwd:
			info.ports = append(info.ports, act.Ports...)
		case lang.ActDrop:
			info.drops = true
		case lang.ActState:
			info.updates[act.Key()] = true
			if _, err := a.sp.LookupState(act.Var); err != nil {
				reportType(act.Pos, SevWarning, nil,
					"state update targets undeclared variable %q", act.Var)
			}
			if act.StateKey != "" {
				if _, _, err := a.tab.ResolveKey(act.StateKey); err != nil {
					reportType(act.Pos, SevError, nil, "state update %s: %v", act, err)
				}
			}
		}
	}
	sort.Ints(info.ports)
	info.ports = dedupInts(info.ports)

	sort.Strings(keys)
	info.condKey = strings.Join(keys, " || ")
	info.actKey = actionSetKey(r.Actions)

	// CAM001: the rule can never match. Skip when the front end already
	// rejected atoms — an unresolvable rule is reported once, as CAM004.
	if len(info.conjs) == 0 && !info.bad {
		info.unsat = true
		a.report(Diagnostic{Code: CodeUnsat, Severity: SevWarning, Rule: index, Line: line, Col: col,
			Msg: "condition is unsatisfiable: no packet can match this rule"})
	}

	// Exact per-field projection across satisfiable conjunctions: a field
	// constrained by every conjunction projects to the union of its sets;
	// a field missing anywhere is unconstrained at the rule level.
	if len(info.conjs) > 0 {
		counts := make(map[int]int)
		for _, rc := range info.conjs {
			for i, f := range rc.fields {
				counts[f]++
				if prev, ok := info.proj[f]; ok {
					info.proj[f] = prev.Union(rc.sets[i])
				} else {
					info.proj[f] = rc.sets[i]
				}
			}
		}
		for f, n := range counts {
			if n < len(info.conjs) {
				delete(info.proj, f) // some conjunction leaves it free
			}
		}
	}
	return info
}

// resolveConj lowers one conjunction to intersected per-field interval
// sets, reporting CAM004s through reportType. ok=false means the
// conjunction contributes nothing (unsatisfiable or unresolvable).
func (a *analysis) resolveConj(r lang.Rule, conj lang.Conjunction, reportType func(lang.Pos, Severity, []Related, string, ...interface{})) (resolvedConj, bool) {
	sets := make(map[int]interval.Set)
	pos := lang.Pos{}
	bad := false
	for _, atom := range conj {
		if !pos.IsValid() {
			pos = atom.Pos
		}
		idx, err := a.tab.Index(atom.LHS)
		if err != nil {
			reportType(atom.Pos, SevError, nil, "%v", err)
			bad = true
			continue
		}
		f := a.tab.Fields()[idx]

		if f.Match == spec.MatchExact && isRangeOp(atom.Op) {
			// Only a spec query field is exact-match; point at its declaration.
			var rel []Related
			if q, err := a.sp.LookupField(f.Name); err == nil && q.Line > 0 {
				rel = []Related{{Rule: -1, Line: q.Line, Col: 1,
					Msg: fmt.Sprintf("field %s is declared @query_field_exact here", f.Name)}}
			}
			reportType(atom.Pos, SevError, rel,
				"range predicate %q on exact-match field %s (declared @query_field_exact)", atom.Op, f.Name)
			bad = true
			continue
		}

		v := atom.RHS.Num
		if atom.RHS.Kind == lang.ValSymbol {
			if f.IsState {
				reportType(atom.Pos, SevError, nil,
					"state field %s compared against symbolic constant %q (state fields take numeric constants)", f.Name, atom.RHS.Sym)
				bad = true
				continue
			}
			q, err := a.sp.LookupField(f.Name)
			if err != nil {
				reportType(atom.Pos, SevError, nil, "%v", err)
				bad = true
				continue
			}
			v, err = spec.EncodeSymbol(q, atom.RHS.Sym)
			if err != nil {
				reportType(atom.Pos, SevError, nil, "symbolic constant does not encode: %v", err)
				bad = true
				continue
			}
		} else if v > f.Max {
			reportType(atom.Pos, SevWarning, nil,
				"value %d overflows %d-bit field %s (max %d)", v, f.Bits, f.Name, f.Max)
		}

		set := compiler.AtomSet(atom.Op, v, f.Max)
		if prev, ok := sets[idx]; ok {
			set = prev.Intersect(set)
		}
		sets[idx] = set
	}
	if bad {
		return resolvedConj{}, false
	}
	rc := resolvedConj{pos: pos}
	for f := range sets {
		rc.fields = append(rc.fields, f)
	}
	sort.Ints(rc.fields)
	rc.sets = make([]interval.Set, len(rc.fields))
	for i, f := range rc.fields {
		rc.sets[i] = sets[f]
		if rc.sets[i].IsEmpty() {
			return resolvedConj{}, false // interval-level contradiction
		}
	}
	return rc, true
}

// conjKey canonicalizes a resolved conjunction for duplicate detection.
func conjKey(rc resolvedConj) string {
	var b strings.Builder
	for i, f := range rc.fields {
		if i > 0 {
			b.WriteByte('&')
		}
		fmt.Fprintf(&b, "%d:%s", f, rc.sets[i].Key())
	}
	if len(rc.fields) == 0 {
		b.WriteString("true")
	}
	return b.String()
}

// actionSetKey canonicalizes an action list (order-insensitive).
func actionSetKey(actions []lang.Action) string {
	keys := make([]string, len(actions))
	for i, a := range actions {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "; ")
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		out = append(out, x)
	}
	return out
}
