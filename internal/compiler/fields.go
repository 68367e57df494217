// Package compiler implements both compilation steps of §3 in the paper:
// the static step that lays out the packet-processing pipeline (one
// match-action table per query field plus the leaf table, a register block
// for state variables) and the dynamic step that translates a subscription
// rule set — via the multi-terminal BDD of package bdd and Algorithm 1 —
// into the control-plane entries that populate those tables.
package compiler

import (
	"fmt"
	"sort"

	"camus/internal/bdd"
	"camus/internal/conc"
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

// resolver turns parsed rules into BDD inputs against a spec.
type resolver struct {
	spec    *spec.Spec
	fields  []FieldInfo
	byName  map[string]int
	actions [][]lang.Action // per rule ID
}

func newResolver(sp *spec.Spec) *resolver {
	r := &resolver{spec: sp, byName: make(map[string]int)}
	for _, q := range sp.OrderedQueries() {
		r.byName[q.Name] = len(r.fields)
		r.fields = append(r.fields, FieldInfo{
			Name: q.Name, Bits: q.Bits, Max: q.DomainMax(), Match: q.Match,
		})
		// Also index by short name when unambiguous; LookupField is the
		// authority, this map is only keyed by canonical names.
	}
	return r
}

// resolveKey canonicalizes a keyed operand's or action's key field and
// returns its canonical name plus its pipeline field index. Keys must be
// @query_field-annotated header fields: the pipeline reads the key value
// from the extracted field vector, so the key has to be a match field the
// parser already delivers.
func (r *resolver) resolveKey(key string) (string, int, error) {
	q, err := r.spec.LookupField(key)
	if err != nil {
		return "", 0, fmt.Errorf("state key [%s]: %w", key, err)
	}
	idx, ok := r.byName[q.Name]
	if !ok {
		return "", 0, fmt.Errorf("internal: key field %q missing from index", q.Name)
	}
	return q.Name, idx, nil
}

// fieldIndex resolves a subscription operand to a pipeline field index,
// creating synthetic state fields on first use.
func (r *resolver) fieldIndex(op lang.Operand) (int, error) {
	keyName, keyIdx := "", -1
	if op.IsKeyed() {
		var err error
		keyName, keyIdx, err = r.resolveKey(op.Key)
		if err != nil {
			return 0, fmt.Errorf("operand %s: %w", op, err)
		}
	}
	keySuffix := ""
	if keyName != "" {
		keySuffix = "[" + keyName + "]"
	}
	if op.IsAggregate() {
		if !validAggregate(op.Agg) {
			return 0, fmt.Errorf("unknown aggregate macro %q (have avg, sum, count, min, max)", op.Agg)
		}
		// Aggregate over a declared state variable — avg(temp) where temp
		// is @query_counter-declared — reads the variable's cells with the
		// macro's fold; the window comes from the declaration and updates
		// are explicit (temp[k] <- sample(...)), so no implicit companion.
		if v, err := r.spec.LookupState(op.Field); err == nil {
			name := fmt.Sprintf("%s(%s)%s", op.Agg, v.Name, keySuffix)
			if idx, ok := r.byName[name]; ok {
				return idx, nil
			}
			idx := len(r.fields)
			r.byName[name] = idx
			r.fields = append(r.fields, FieldInfo{
				Name: name, Bits: stateFieldBits, Max: (1 << stateFieldBits) - 1,
				Match: spec.MatchRange, IsState: true, Agg: op.Agg,
				WindowUS: v.WindowUS,
				StateVar: v.Name, KeyField: keyName, KeyIndex: keyIdx,
			})
			return idx, nil
		}
		q, err := r.spec.LookupField(op.Field)
		if err != nil {
			return 0, fmt.Errorf("aggregate %s: %w", op, err)
		}
		stateVar := fmt.Sprintf("%s(%s)", op.Agg, q.Name)
		name := stateVar + keySuffix
		if idx, ok := r.byName[name]; ok {
			return idx, nil
		}
		idx := len(r.fields)
		r.byName[name] = idx
		r.fields = append(r.fields, FieldInfo{
			Name: name, Bits: stateFieldBits, Max: (1 << stateFieldBits) - 1,
			Match: spec.MatchRange, IsState: true, Agg: op.Agg, BaseField: q.Name,
			WindowUS: AggWindowUS,
			StateVar: stateVar, KeyField: keyName, KeyIndex: keyIdx,
		})
		return idx, nil
	}
	// State variable reference (declared via @query_counter/@query_register).
	if v, err := r.spec.LookupState(op.Field); err == nil {
		name := v.Name + keySuffix
		if idx, ok := r.byName[name]; ok {
			return idx, nil
		}
		bits := v.Bits
		if bits == 0 {
			bits = stateFieldBits
		}
		idx := len(r.fields)
		r.byName[name] = idx
		max := ^uint64(0)
		if bits < 64 {
			max = (uint64(1) << bits) - 1
		}
		r.fields = append(r.fields, FieldInfo{
			Name: name, Bits: bits, Max: max,
			Match: spec.MatchRange, IsState: true, Agg: "count", BaseField: "",
			WindowUS: v.WindowUS,
			StateVar: v.Name, KeyField: keyName, KeyIndex: keyIdx,
		})
		return idx, nil
	}
	if op.IsKeyed() {
		return 0, fmt.Errorf("operand %s: key suffix on non-state field %q", op, op.Field)
	}
	q, err := r.spec.LookupField(op.Field)
	if err != nil {
		return 0, err
	}
	idx, ok := r.byName[q.Name]
	if !ok {
		return 0, fmt.Errorf("internal: field %q missing from index", q.Name)
	}
	return idx, nil
}

func validAggregate(name string) bool {
	switch name {
	case "avg", "sum", "count", "min", "max":
		return true
	}
	return false
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
	if v > f.Max {
		// Constant outside the field domain: == never matches, > never
		// matches, < always matches, etc. Express via interval math on
		// the clamped domain.
		switch a.Op {
		case lang.OpEq:
			return interval.Empty(), nil
		case lang.OpNeq:
			return interval.Full(f.Max), nil
		case lang.OpLt, lang.OpLe:
			return interval.Full(f.Max), nil
		default: // OpGt, OpGe
			return interval.Empty(), nil
		}
	}
	switch a.Op {
	case lang.OpEq:
		return interval.Point(v), nil
	case lang.OpNeq:
		return interval.NotEqual(v, f.Max), nil
	case lang.OpLt:
		return interval.LessThan(v), nil
	case lang.OpGt:
		return interval.GreaterThan(v, f.Max), nil
	case lang.OpLe:
		return interval.AtMost(v), nil
	case lang.OpGe:
		return interval.AtLeast(v, f.Max), nil
	}
	return interval.Set{}, fmt.Errorf("predicate %s: unknown operator", a)
}

// ruleConjs is the resolved form of one rule: its BDD conjunctions plus
// the payload IDs allocated for the rule and (if it contains aggregate
// predicates) its implicit state-update companion. The IDs index the
// resolver's actions table and stay valid for the resolver's lifetime, so
// a Session can cache resolved rules across recompiles.
type ruleConjs struct {
	RuleID   int
	UpdateID int // -1 when the rule needs no companion
	Conjs    []bdd.Conj
}

// resolveRules lowers DNF rules to BDD conjunctions. Rules containing
// aggregate predicates are split per the paper's semantics ("the macro avg
// stores the current average, which is updated when the rest of the rule
// matches"): the aggregate's state-update rides on a companion rule whose
// condition is the original minus the aggregate atoms.
//
// Resolution runs in two phases so the expensive part can fan out across
// workers without losing determinism. Phase 1 walks rules serially and
// performs every resolver mutation: payload-ID allocation, synthetic
// state-field creation (order-sensitive), and companion-action
// registration. Phase 2 converts atoms to interval sets — pure reads of
// the now-frozen field table — in parallel, one rule per work item.
// Output is position-stable, hence identical to a serial resolve.
func (r *resolver) resolveRules(rules []lang.DNFRule, workers int) ([]ruleConjs, error) {
	out := make([]ruleConjs, len(rules))
	fieldIdx := make([][][]int, len(rules)) // rule -> conjunction -> atom -> field index

	for ri := range rules {
		rule := &rules[ri]
		actions, err := r.canonicalizeActions(rule.Actions)
		if err != nil {
			return nil, fmt.Errorf("rule %d: %w", rule.ID, err)
		}
		out[ri] = ruleConjs{RuleID: len(r.actions), UpdateID: -1}
		r.actions = append(r.actions, actions)
		fieldIdx[ri] = make([][]int, len(rule.Conjunctions))

		for ci, c := range rule.Conjunctions {
			idxs := make([]int, len(c))
			var implicitUpdates []lang.Action
			for ai, atom := range c {
				idx, err := r.fieldIndex(atom.LHS)
				if err != nil {
					return nil, fmt.Errorf("rule %d: %w", rule.ID, err)
				}
				idxs[ai] = idx
				if r.fields[idx].SelfUpdating() && atom.LHS.IsAggregate() {
					u := lang.KeyedStateUpdate(r.fields[idx].StateVar, r.fields[idx].KeyField,
						atom.LHS.Agg, r.fields[idx].BaseField)
					implicitUpdates = append(implicitUpdates, u)
				}
			}
			fieldIdx[ri][ci] = idxs
			if len(implicitUpdates) > 0 {
				if out[ri].UpdateID < 0 {
					out[ri].UpdateID = len(r.actions)
					r.actions = append(r.actions, nil)
				}
				for _, u := range implicitUpdates {
					if !containsAction(r.actions[out[ri].UpdateID], u) {
						r.actions[out[ri].UpdateID] = append(r.actions[out[ri].UpdateID], u)
					}
				}
			}
		}
	}

	errs := make([]error, len(rules))
	conc.ForEach(len(rules), workers, func(ri int) {
		rule := &rules[ri]
		rc := &out[ri]
		for ci, c := range rule.Conjunctions {
			full := bdd.Conj{Payload: rc.RuleID, Constraints: make([]bdd.Constraint, 0, len(c))}
			// The companion condition strips only self-updating macro atoms:
			// reads of explicitly updated variables (keyed or not) carry no
			// implicit update to ride on it. It is begun at the first such
			// atom, so a rule without one pays nothing for it.
			rest := bdd.Conj{Payload: rc.UpdateID}
			hasAggregate := false
			for ai := range c {
				atom := &c[ai] // also the constraint's label, formatted only if the BDD asks
				idx := fieldIdx[ri][ci][ai]
				set, err := r.atomSet(idx, *atom)
				if err != nil {
					errs[ri] = fmt.Errorf("rule %d: %w", rule.ID, err)
					return
				}
				con := bdd.Constraint{Field: idx, Set: set, Label: atom}
				if r.fields[idx].SelfUpdating() && atom.LHS.IsAggregate() {
					if !hasAggregate {
						hasAggregate = true
						rest.Constraints = append(rest.Constraints, full.Constraints...)
					}
				} else if hasAggregate {
					rest.Constraints = append(rest.Constraints, con)
				}
				full.Constraints = append(full.Constraints, con)
			}
			rc.Conjs = append(rc.Conjs, full)
			if hasAggregate {
				rc.Conjs = append(rc.Conjs, rest)
			}
		}
	})
	if err := conc.FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// flattenConjs concatenates per-rule conjunctions in rule order — the
// exact sequence a serial single-pass resolve would emit.
func flattenConjs(rcs []ruleConjs) []bdd.Conj {
	total := 0
	for _, rc := range rcs {
		total += len(rc.Conjs)
	}
	out := make([]bdd.Conj, 0, total)
	for _, rc := range rcs {
		out = append(out, rc.Conjs...)
	}
	return out
}

// canonicalizeActions validates keyed state updates and rewrites their
// key to the canonical field name (src -> pkt.src), copying the action
// list only when a rewrite is needed so cached rules stay untouched.
func (r *resolver) canonicalizeActions(actions []lang.Action) ([]lang.Action, error) {
	out := actions
	for i, a := range actions {
		if a.Kind != lang.ActState || a.StateKey == "" {
			continue
		}
		keyName, _, err := r.resolveKey(a.StateKey)
		if err != nil {
			return nil, fmt.Errorf("action %s: %w", a, err)
		}
		if keyName == a.StateKey {
			continue
		}
		if &out[0] == &actions[0] {
			out = append([]lang.Action(nil), actions...)
		}
		out[i].StateKey = keyName
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

// sortRuleActions canonicalizes an action list for deduplication.
func sortRuleActions(actions []lang.Action) []lang.Action {
	out := append([]lang.Action(nil), actions...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}
