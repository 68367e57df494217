// Package compiler implements both compilation steps of §3 in the paper:
// the static step that lays out the packet-processing pipeline (one
// match-action table per query field plus the leaf table, a register block
// for state variables) and the dynamic step that translates a subscription
// rule set — via the multi-terminal BDD of package bdd and Algorithm 1 —
// into the control-plane entries that populate those tables.
package compiler

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"camus/internal/bdd"
	"camus/internal/interval"
	"camus/internal/lang"
	"camus/internal/spec"
)

// FieldInfo describes one pipeline match field: either a packet header
// field annotated in the spec, or a synthetic state field backing an
// aggregate macro (avg(price)) or an explicitly declared state variable.
type FieldInfo struct {
	Name  string
	Bits  int
	Max   uint64
	Match spec.MatchKind

	// State fields (aggregates / state variables).
	IsState   bool
	Agg       string // aggregate function name ("avg", "sum", ...)
	BaseField string // packet field a macro aggregate is computed over ("" for declared-variable reads)
	WindowUS  uint64 // tumbling-window length in µs (0 = default)

	// Keyed state (PR 10). StateVar names the backing state variable —
	// the register-bank identity is StateVar plus the key suffix, so
	// avg(temp)[sensor] and sum(temp)[sensor] over a declared variable
	// `temp` read the same bank with different folds. KeyField is the
	// canonical key header field name ("" for unkeyed state), KeyIndex
	// its pipeline field index (valid only when KeyField != "").
	StateVar string
	KeyField string
	KeyIndex int
}

// SelfUpdating reports whether the state field is a macro aggregate that
// maintains itself via an implicit update companion (avg(price)), as
// opposed to a read of an explicitly updated declared variable.
func (f FieldInfo) SelfUpdating() bool { return f.IsState && f.BaseField != "" }

// StateIdentity returns the register-bank identity the field reads:
// the backing variable name plus "[key]" when keyed. Empty for
// non-state fields.
func (f FieldInfo) StateIdentity() string {
	if !f.IsState {
		return ""
	}
	return StateIdentity(f.StateVar, f.KeyField)
}

// StateIdentity forms the canonical register-bank identity for a state
// variable and an optional canonical key field name.
func StateIdentity(stateVar, keyField string) string {
	if keyField == "" {
		return stateVar
	}
	return stateVar + "[" + keyField + "]"
}

// AggWindowUS is the default tumbling-window size for aggregate macros
// that have no explicit @query_counter declaration, in microseconds.
const AggWindowUS = 100

// stateFieldBits is the width used for synthetic aggregate fields.
const stateFieldBits = 32

// FieldTable resolves subscription operands to pipeline match fields
// against a spec: the spec's query fields in BDD variable order, then one
// synthetic state field per aggregate macro or state-variable read, created
// where its operand first appears. It only ever grows — an index, once
// given, keeps its meaning. The compiler's resolver and the static analyzer
// (package analyze) both resolve through it, so a rule the analyzer passes
// is a rule the compiler accepts.
type FieldTable struct {
	spec   *spec.Spec
	fields []FieldInfo
	byName map[string]int
}

// NewFieldTable indexes the spec's query fields.
func NewFieldTable(sp *spec.Spec) *FieldTable {
	t := &FieldTable{spec: sp, byName: make(map[string]int)}
	for _, q := range sp.OrderedQueries() {
		t.byName[q.Name] = len(t.fields)
		t.fields = append(t.fields, FieldInfo{
			Name: q.Name, Bits: q.Bits, Max: q.DomainMax(), Match: q.Match,
		})
		// Also index by short name when unambiguous; LookupField is the
		// authority, this map is only keyed by canonical names.
	}
	return t
}

// Fields returns the table so far, indexed as Index reports. The slice is
// the table's own: read it, and re-read it after a later Index.
func (t *FieldTable) Fields() []FieldInfo { return t.fields }

// ResolveKey canonicalizes a keyed operand's or action's key field and
// returns its canonical name plus its pipeline field index. Keys must be
// @query_field-annotated header fields: the pipeline reads the key value
// from the extracted field vector, so the key has to be a match field the
// parser already delivers.
func (t *FieldTable) ResolveKey(key string) (string, int, error) {
	q, err := t.spec.LookupField(key)
	if err != nil {
		return "", 0, fmt.Errorf("state key [%s]: %w", key, err)
	}
	idx, ok := t.byName[q.Name]
	if !ok {
		return "", 0, fmt.Errorf("internal: key field %q missing from index", q.Name)
	}
	return q.Name, idx, nil
}

// state returns the index of the synthetic state field f.Name, adding f on
// first use.
func (t *FieldTable) state(f FieldInfo) int {
	if idx, ok := t.byName[f.Name]; ok {
		return idx
	}
	f.Match, f.IsState = spec.MatchRange, true
	f.Max = ^uint64(0)
	if f.Bits < 64 {
		f.Max = uint64(1)<<f.Bits - 1
	}
	idx := len(t.fields)
	t.byName[f.Name] = idx
	t.fields = append(t.fields, f)
	return idx
}

// Index resolves a subscription operand to a pipeline field index,
// creating synthetic state fields on first use.
func (t *FieldTable) Index(op lang.Operand) (int, error) {
	keyName, keyIdx := "", -1
	if op.IsKeyed() {
		var err error
		keyName, keyIdx, err = t.ResolveKey(op.Key)
		if err != nil {
			return 0, fmt.Errorf("operand %s: %w", op, err)
		}
	}
	keySuffix := ""
	if keyName != "" {
		keySuffix = "[" + keyName + "]"
	}
	if op.IsAggregate() {
		switch op.Agg {
		case "avg", "sum", "count", "min", "max":
		default:
			return 0, fmt.Errorf("unknown aggregate macro %q (have avg, sum, count, min, max)", op.Agg)
		}
		// Aggregate over a declared state variable — avg(temp) where temp
		// is @query_counter-declared — reads the variable's cells with the
		// macro's fold; the window comes from the declaration and updates
		// are explicit (temp[k] <- sample(...)), so no implicit companion.
		if v, err := t.spec.LookupState(op.Field); err == nil {
			return t.state(FieldInfo{
				Name: fmt.Sprintf("%s(%s)%s", op.Agg, v.Name, keySuffix), Bits: stateFieldBits,
				Agg: op.Agg, WindowUS: v.WindowUS,
				StateVar: v.Name, KeyField: keyName, KeyIndex: keyIdx,
			}), nil
		}
		q, err := t.spec.LookupField(op.Field)
		if err != nil {
			return 0, fmt.Errorf("aggregate %s: %w", op, err)
		}
		stateVar := fmt.Sprintf("%s(%s)", op.Agg, q.Name)
		return t.state(FieldInfo{
			Name: stateVar + keySuffix, Bits: stateFieldBits,
			Agg: op.Agg, BaseField: q.Name, WindowUS: AggWindowUS,
			StateVar: stateVar, KeyField: keyName, KeyIndex: keyIdx,
		}), nil
	}
	// State variable reference (declared via @query_counter/@query_register).
	if v, err := t.spec.LookupState(op.Field); err == nil {
		bits := v.Bits
		if bits == 0 {
			bits = stateFieldBits
		}
		return t.state(FieldInfo{
			Name: v.Name + keySuffix, Bits: bits,
			Agg: "count", WindowUS: v.WindowUS,
			StateVar: v.Name, KeyField: keyName, KeyIndex: keyIdx,
		}), nil
	}
	if op.IsKeyed() {
		return 0, fmt.Errorf("operand %s: key suffix on non-state field %q", op, op.Field)
	}
	q, err := t.spec.LookupField(op.Field)
	if err != nil {
		return 0, err
	}
	idx, ok := t.byName[q.Name]
	if !ok {
		return 0, fmt.Errorf("internal: field %q missing from index", q.Name)
	}
	return idx, nil
}

// AtomSet lowers `field op v` to the interval set of values that satisfy
// it on a field whose domain is [0, max]. A constant outside the domain
// makes == and > never match and != and < always match; that is expressed
// via interval math on the clamped domain.
func AtomSet(op lang.CmpOp, v, max uint64) interval.Set {
	if v > max {
		switch op {
		case lang.OpEq, lang.OpGt, lang.OpGe:
			return interval.Empty()
		default: // OpNeq, OpLt, OpLe
			return interval.Full(max)
		}
	}
	switch op {
	case lang.OpEq:
		return interval.Point(v)
	case lang.OpNeq:
		return interval.NotEqual(v, max)
	case lang.OpLt:
		return interval.LessThan(v)
	case lang.OpGt:
		return interval.GreaterThan(v, max)
	case lang.OpLe:
		return interval.AtMost(v)
	default: // OpGe
		return interval.AtLeast(v, max)
	}
}

// resolver turns parsed rules into BDD inputs against a spec. It only ever
// grows: fields, payload IDs and predicates, once given, keep their meaning.
type resolver struct {
	*FieldTable
	actions [][]lang.Action          // per payload ID
	preds   map[lang.Atom]*predicate // by the atom less its position
}

func newResolver(sp *spec.Spec) *resolver {
	return &resolver{FieldTable: NewFieldTable(sp), preds: make(map[lang.Atom]*predicate)}
}

// atomSet converts an atomic predicate into the interval set of values
// that satisfy it, resolving symbolic constants against the spec.
func (r *resolver) atomSet(fieldIdx int, a lang.Atom) (interval.Set, error) {
	f := r.fields[fieldIdx]
	v := a.RHS.Num
	if a.RHS.Kind == lang.ValSymbol {
		if f.IsState {
			return interval.Set{}, fmt.Errorf("predicate %s: state fields take numeric constants", a)
		}
		q, err := r.spec.LookupField(f.Name)
		if err != nil {
			return interval.Set{}, err
		}
		v, err = spec.EncodeSymbol(q, a.RHS.Sym)
		if err != nil {
			return interval.Set{}, fmt.Errorf("predicate %s: %w", a, err)
		}
	}
	return AtomSet(a.Op, v, f.Max), nil
}

// predicate is one distinct atom — operand, operator, constant — resolved
// against the spec the first time a rule uses it. Every later use is a map
// lookup and shares the constraint, its interval set and the atom that labels
// it: a Program or a Session holds one atom per predicate, not one per use.
type predicate struct {
	atom   lang.Atom      // without a position: what con.Label points at
	con    bdd.Constraint // formatted from atom only if the BDD asks
	update *lang.Action   // the implicit update a self-updating macro atom carries
}

// predicate interns an atom, creating its synthetic state field on first
// use of the operand.
func (r *resolver) predicate(a lang.Atom) (*predicate, error) {
	a.Pos = lang.Pos{}
	if p, ok := r.preds[a]; ok {
		return p, nil
	}
	idx, err := r.Index(a.LHS)
	if err != nil {
		return nil, err
	}
	set, err := r.atomSet(idx, a)
	if err != nil {
		return nil, err
	}
	// A parsed atom's strings are substrings of the rule text. The
	// predicate outlives the parse, so it takes copies — one set per
	// distinct predicate — or a Program or Session would pin every source
	// text it was given.
	a.LHS = lang.Operand{Field: strings.Clone(a.LHS.Field), Agg: strings.Clone(a.LHS.Agg), Key: strings.Clone(a.LHS.Key)}
	a.RHS.Sym = strings.Clone(a.RHS.Sym)
	p := &predicate{atom: a}
	p.con = bdd.Constraint{Field: idx, Set: set, Label: &p.atom}
	if f := r.fields[idx]; f.SelfUpdating() && a.LHS.IsAggregate() {
		u := lang.KeyedStateUpdate(f.StateVar, f.KeyField, a.LHS.Agg, f.BaseField)
		p.update = &u
	}
	r.preds[a] = p
	return p, nil
}

// resolve lowers one DNF rule to BDD conjunctions, appended to out, and
// returns the payload ID allocated for the rule. IDs index the resolver's
// actions table and stay valid for its lifetime, so a Session can cache
// resolved rules across recompiles. A rule containing aggregate predicates is
// split per the paper's semantics ("the macro avg stores the current average,
// which is updated when the rest of the rule matches"): the aggregate's state
// update rides on a companion conjunction, under a payload ID of its own,
// whose condition is the original minus the aggregate atoms. Rules are
// resolved one by one in source order, and that order is the output's:
// payload IDs count rules and companions as they come, and a synthetic state
// field is created where its operand first appears.
func (r *resolver) resolve(rule *lang.DNFRule, out []bdd.Conj) ([]bdd.Conj, int, error) {
	actions, err := r.canonicalizeActions(rule.Actions)
	if err != nil {
		return out, 0, fmt.Errorf("rule %d: %w", rule.ID, err)
	}
	ruleID, updateID := len(r.actions), -1
	r.actions = append(r.actions, actions)
	for _, c := range rule.Conjunctions {
		full := bdd.Conj{Payload: ruleID, Constraints: make([]bdd.Constraint, 0, len(c))}
		// The companion condition strips only self-updating macro atoms:
		// reads of explicitly updated variables (keyed or not) carry no
		// implicit update to ride on it. It is begun at the first such
		// atom, so a rule without one pays nothing for it.
		var rest []bdd.Constraint
		hasAggregate := false
		for _, atom := range c {
			p, err := r.predicate(atom)
			if err != nil {
				return out, 0, fmt.Errorf("rule %d: %w", rule.ID, err)
			}
			if p.update != nil {
				if !hasAggregate {
					hasAggregate = true
					rest = append(rest, full.Constraints...)
				}
				if updateID < 0 {
					updateID = len(r.actions)
					r.actions = append(r.actions, nil)
				}
				if !containsAction(r.actions[updateID], *p.update) {
					r.actions[updateID] = append(r.actions[updateID], *p.update)
				}
			} else if hasAggregate {
				rest = append(rest, p.con)
			}
			full.Constraints = append(full.Constraints, p.con)
		}
		out = append(out, full)
		if hasAggregate {
			out = append(out, bdd.Conj{Payload: updateID, Constraints: rest})
		}
	}
	return out, ruleID, nil
}

// canonicalizeActions validates keyed state updates and rewrites their
// key to the canonical field name (src -> pkt.src). The resolver keeps the
// list it returns: a list with a state update in it is a copy, so the
// caller's rules stay untouched, and the update's names are copies too —
// parsed, they are substrings of the rule text (see predicate).
func (r *resolver) canonicalizeActions(actions []lang.Action) ([]lang.Action, error) {
	out := actions
	for i, a := range actions {
		if a.Kind != lang.ActState {
			continue
		}
		keyName := ""
		if a.StateKey != "" {
			var err error
			if keyName, _, err = r.ResolveKey(a.StateKey); err != nil {
				return nil, fmt.Errorf("action %s: %w", a, err)
			}
		}
		if &out[0] == &actions[0] {
			out = append([]lang.Action(nil), actions...)
		}
		u := &out[i]
		u.Var, u.Func, u.StateKey = strings.Clone(a.Var), strings.Clone(a.Func), keyName
		u.Args = slices.Clone(a.Args)
		for j, arg := range u.Args {
			u.Args[j] = strings.Clone(arg)
		}
	}
	return out, nil
}

func containsAction(list []lang.Action, a lang.Action) bool {
	for _, x := range list {
		if x.Equal(a) {
			return true
		}
	}
	return false
}

// sortRuleActions puts an action list in canonical order, for
// deduplication.
func sortRuleActions(actions []lang.Action) {
	slices.SortFunc(actions, func(a, b lang.Action) int { return cmp.Compare(a.Key(), b.Key()) })
}
