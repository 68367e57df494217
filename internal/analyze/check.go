package analyze

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/interval"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

// analysis carries the state of one run: the rules the front end kept, in
// their resolved form, the pass's field table once the front end is done,
// and the accumulated diagnostics.
type analysis struct {
	sp   *spec.Spec
	opts Options

	fields  []bdd.Field      // the pass's field table
	sets    *bdd.PayloadSets // what builder's terminals stand for
	builder *bdd.Builder     // shared arena for every BDD containment test

	seen  int         // rules shown by the front end
	infos []*ruleInfo // the rules kept
	diags []Diagnostic
}

// ruleInfo is the resolved form of one rule.
type ruleInfo struct {
	index int      // position in the analyzed set
	pos   lang.Pos // its first satisfiable conjunction's first atom's, else the rule's

	unsat bool // CAM001: no satisfiable conjunction

	// conjs are the satisfiable conjunctions: the resolver's constraints,
	// one per field — those on one field intersected — by ascending field.
	// Fields not present are unconstrained.
	conjs   [][]bdd.Constraint
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

func newAnalysis(sp *spec.Spec, opts Options) *analysis {
	sets := bdd.NewPayloadSets()
	return &analysis{sp: sp, opts: opts, sets: sets, builder: bdd.NewClassBuilder(sets)}
}

func (a *analysis) report(d Diagnostic) { a.diags = append(a.diags, d) }

// rulePos falls back from an atom position to the rule position so
// programmatically built rules still get a stable anchor.
func rulePos(rule, p lang.Pos) (line, col int) {
	if p.IsValid() {
		return p.Line, p.Col
	}
	return rule.Line, rule.Col
}

// checkRule is the front end's observer: CAM004 over what the resolver made
// of the rule, and CAM001 satisfiability. It keeps the rule unless it found
// an error, recording its resolved form for the pairwise checks.
func (a *analysis) checkRule(res *compiler.Resolved) bool {
	r := res.Rule
	info := &ruleInfo{index: a.seen, pos: r.Pos, proj: make(map[int]interval.Set), updates: make(map[string]bool)}
	a.seen++

	// CAM004s are deduplicated per position+msg — DNF expansion can
	// replicate an atom across conjunctions.
	type camKey struct {
		line, col int
		msg       string
	}
	seen := make(map[camKey]bool)
	bad := false
	reportType := func(p lang.Pos, sev Severity, related []Related, format string, args ...interface{}) {
		l, c := rulePos(r.Pos, p)
		msg := fmt.Sprintf(format, args...)
		k := camKey{l, c, msg}
		if seen[k] {
			return
		}
		seen[k] = true
		if sev == SevError {
			bad = true
		}
		a.report(Diagnostic{Code: CodeType, Severity: sev, Rule: info.index, Line: l, Col: c, Msg: msg, Related: related})
	}

	atoms := res.Atoms
	for _, conj := range r.Conjunctions {
		cons := make([]bdd.Constraint, 0, len(conj))
		sat := true
		for i, atom := range conj {
			ra := atoms[i]
			if ra.Err != nil {
				reportType(atom.Pos, SevError, nil, "%v", ra.Err)
				continue
			}
			f := res.Fields[ra.Con.Field]
			if f.Match == spec.MatchExact && atom.Op != lang.OpEq {
				// Only a spec query field is exact-match; point at its declaration.
				var rel []Related
				if q, err := a.sp.LookupField(f.Name); err == nil && q.Line > 0 {
					rel = []Related{{Rule: -1, Line: q.Line, Col: 1,
						Msg: fmt.Sprintf("field %s is declared @query_field_exact here", f.Name)}}
				}
				reportType(atom.Pos, SevError, rel,
					"range predicate %q on exact-match field %s (declared @query_field_exact)", atom.Op, f.Name)
				continue
			}
			if v := atom.RHS.Num; atom.RHS.Kind != lang.ValSymbol && v > f.Max {
				reportType(atom.Pos, SevWarning, nil,
					"value %d overflows %d-bit field %s (max %d)", v, f.Bits, f.Name, f.Max)
			}
			sat = and(&cons, ra.Con) && sat
		}
		atoms = atoms[len(conj):]
		if sat {
			if len(info.conjs) == 0 && len(conj) > 0 && conj[0].Pos.IsValid() {
				info.pos = conj[0].Pos
			}
			slices.SortFunc(cons, func(x, y bdd.Constraint) int { return x.Field - y.Field })
			info.conjs = append(info.conjs, cons)
		}
	}

	// Effect summary from the rule's explicit actions.
	for i, act := range r.Actions {
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
		}
		if res.ActionErr != nil && i == res.Action {
			reportType(act.Pos, SevError, nil, "%v", res.ActionErr)
		}
	}
	if bad {
		return false
	}
	slices.Sort(info.ports)
	info.ports = slices.Compact(info.ports)

	keys := make([]string, len(info.conjs))
	for i, cons := range info.conjs {
		keys[i] = conjKey(cons)
	}
	sort.Strings(keys)
	info.condKey = strings.Join(keys, " || ")
	info.actKey = actionSetKey(r.Actions)

	// CAM001: the rule can never match.
	if len(info.conjs) == 0 {
		info.unsat = true
		a.report(Diagnostic{Code: CodeUnsat, Severity: SevWarning, Rule: info.index, Line: r.Pos.Line, Col: r.Pos.Col,
			Msg: "condition is unsatisfiable: no packet can match this rule"})
	}

	// Exact per-field projection across satisfiable conjunctions: a field
	// constrained by every conjunction projects to the union of its sets;
	// a field missing anywhere is unconstrained at the rule level.
	if len(info.conjs) > 0 {
		counts := make(map[int]int)
		for _, cons := range info.conjs {
			for _, c := range cons {
				counts[c.Field]++
				if prev, ok := info.proj[c.Field]; ok {
					info.proj[c.Field] = prev.Union(c.Set)
				} else {
					info.proj[c.Field] = c.Set
				}
			}
		}
		for f, n := range counts {
			if n < len(info.conjs) {
				delete(info.proj, f) // some conjunction leaves it free
			}
		}
	}
	a.infos = append(a.infos, info)
	return true
}

// and intersects c into a conjunction, reporting whether it is still
// satisfiable.
func and(cons *[]bdd.Constraint, c bdd.Constraint) bool {
	for i := range *cons {
		if p := &(*cons)[i]; p.Field == c.Field {
			p.Set, p.Label = p.Set.Intersect(c.Set), nil
			return !p.Set.IsEmpty()
		}
	}
	*cons = append(*cons, c)
	return !c.Set.IsEmpty()
}

// checkResources compiles the rules the front end kept and, unless
// SkipResources, prices the program against the device budget: CAM006
// when it does not fit. The estimate is exact — it is the program an
// install of the set would write — which is why the admission gate can
// promise "rejected rule sets never touch the device".
func (a *analysis) checkResources(pass *compiler.Pass, rep *Report) *compiler.Program {
	prog, err := pass.Compile()
	if err != nil {
		a.report(Diagnostic{Code: CodeParse, Severity: SevError, Rule: -1,
			Msg: fmt.Sprintf("resource estimation failed: compiler rejected the rule set: %v", err)})
		return nil
	}
	if a.opts.SkipResources || len(a.infos) == 0 {
		return prog
	}
	plan := pipeline.Plan(prog, a.opts.budget())
	rep.Estimate = &plan
	if !plan.Fits() {
		last := a.infos[len(a.infos)-1]
		a.report(Diagnostic{Code: CodeResources, Severity: SevError, Rule: last.index,
			Line: last.pos.Line, Col: last.pos.Col,
			Msg: fmt.Sprintf("estimated table entries exceed device budget: stages %d/%d, SRAM %d/%d, TCAM %d/%d",
				plan.StagesUsed, plan.StageBudget, plan.TotalSRAM, plan.SRAMBudget, plan.TotalTCAM, plan.TCAMBudget)})
	}
	return prog
}

// conjKey canonicalizes a resolved conjunction for duplicate detection.
func conjKey(cons []bdd.Constraint) string {
	var b strings.Builder
	for i, c := range cons {
		if i > 0 {
			b.WriteByte('&')
		}
		fmt.Fprintf(&b, "%d:%s", c.Field, c.Set.Key())
	}
	if len(cons) == 0 {
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
