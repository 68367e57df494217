// Package compiler implements both compilation steps of §3 in the paper:
// the static step that lays out the packet-processing pipeline (one
// match-action table per query field plus the leaf table, a register block
// for state variables) and the dynamic step that translates a subscription
// rule set — via the multi-terminal BDD of package bdd and Algorithm 1 —
// into the control-plane entries that populate those tables.
package compiler

import (
	"cmp"
	"encoding/binary"
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

// state returns the index of the synthetic state field f.Name, adding f on
// first use.
func (r *resolver) state(f FieldInfo) int {
	if idx, ok := r.byName[f.Name]; ok {
		return idx
	}
	f.Match, f.IsState = spec.MatchRange, true
	f.Max = ^uint64(0)
	if f.Bits < 64 {
		f.Max = uint64(1)<<f.Bits - 1
	}
	idx := len(r.fields)
	r.byName[f.Name] = idx
	r.fields = append(r.fields, f)
	return idx
}

// index resolves a subscription operand to a pipeline field index,
// creating synthetic state fields on first use.
func (r *resolver) index(op lang.Operand) (int, error) {
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
		switch op.Agg {
		case "avg", "sum", "count", "min", "max":
		default:
			return 0, fmt.Errorf("unknown aggregate macro %q (have avg, sum, count, min, max)", op.Agg)
		}
		// Aggregate over a declared state variable — avg(temp) where temp
		// is @query_counter-declared — reads the variable's cells with the
		// macro's fold; the window comes from the declaration and updates
		// are explicit (temp[k] <- sample(...)), so no implicit companion.
		if v, err := r.spec.LookupState(op.Field); err == nil {
			return r.state(FieldInfo{
				Name: fmt.Sprintf("%s(%s)%s", op.Agg, v.Name, keySuffix), Bits: stateFieldBits,
				Agg: op.Agg, WindowUS: v.WindowUS,
				StateVar: v.Name, KeyField: keyName, KeyIndex: keyIdx,
			}), nil
		}
		q, err := r.spec.LookupField(op.Field)
		if err != nil {
			return 0, fmt.Errorf("aggregate %s: %w", op, err)
		}
		stateVar := fmt.Sprintf("%s(%s)", op.Agg, q.Name)
		return r.state(FieldInfo{
			Name: stateVar + keySuffix, Bits: stateFieldBits,
			Agg: op.Agg, BaseField: q.Name, WindowUS: AggWindowUS,
			StateVar: stateVar, KeyField: keyName, KeyIndex: keyIdx,
		}), nil
	}
	// State variable reference (declared via @query_counter/@query_register).
	if v, err := r.spec.LookupState(op.Field); err == nil {
		bits := v.Bits
		if bits == 0 {
			bits = stateFieldBits
		}
		return r.state(FieldInfo{
			Name: v.Name + keySuffix, Bits: bits,
			Agg: "count", WindowUS: v.WindowUS,
			StateVar: v.Name, KeyField: keyName, KeyIndex: keyIdx,
		}), nil
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

// resolver turns parsed rules into BDD inputs against a spec. Its field
// table is the spec's query fields in BDD variable order, then one synthetic
// state field per aggregate macro or state-variable read, created where its
// operand first appears (byName is keyed by canonical names; LookupField is
// the authority on short ones). Fields, predicates and action lists, once
// given, keep their meaning but for rollback; a payload ID keeps its until
// it is released, and is then given again.
type resolver struct {
	spec    *spec.Spec
	fields  []FieldInfo
	byName  map[string]int
	actions [][]lang.Action          // per payload ID
	free    []int                    // released payload IDs
	preds   map[lang.Atom]*predicate // by the atom less its position
	made    int                      // predicates interned so far
	lists   map[string]actionList    // a rule's action list by its encoding
	listed  int                      // action lists interned so far
	scratch []byte

	// seen, when not nil, is filled by resolve with what it made of the
	// rule, for an Observer.
	seen *Resolved
}

// Resolved is what an Observer is shown of one rule, once the resolver has
// been through all of it. It is valid only during the call.
type Resolved struct {
	Rule *lang.DNFRule
	// Atoms holds one entry per atom of Rule, conjunction by conjunction.
	Atoms []ResolvedAtom
	// ActionErr is the resolver's error for Rule.Actions[Action], if any.
	Action    int
	ActionErr error
	// Fields is the field table so far: what Constraint.Field indexes.
	Fields []FieldInfo
}

// ResolvedAtom is an atom's interned predicate — its field and interval
// set — or the resolver's error for it.
type ResolvedAtom struct {
	Con bdd.Constraint
	Err error
}

// mark is how much a resolver has handed out: fields, payload IDs,
// interned predicates and interned action lists.
type mark struct{ fields, actions, preds, lists int }

func (r *resolver) mark() mark { return mark{len(r.fields), len(r.actions), r.made, r.listed} }

// rollback takes back what resolving rule made since m, on a resolver that
// has released nothing.
func (r *resolver) rollback(m mark, rule *lang.DNFRule) {
	for _, f := range r.fields[m.fields:] {
		delete(r.byName, f.Name)
	}
	for _, actions := range r.actions[m.actions:] {
		r.scratch = appendActions(r.scratch[:0], actions)
		if l, ok := r.lists[string(r.scratch)]; ok && l.seq >= m.lists {
			delete(r.lists, string(r.scratch))
		}
	}
	r.listed = m.lists
	r.fields, r.actions = r.fields[:m.fields], r.actions[:m.actions]
	for _, c := range rule.Conjunctions {
		for _, a := range c {
			a.Pos = lang.Pos{}
			if p, ok := r.preds[a]; ok && p.seq >= m.preds {
				delete(r.preds, a)
			}
		}
	}
	r.made = m.preds
}

func newResolver(sp *spec.Spec) *resolver {
	r := &resolver{spec: sp, byName: make(map[string]int), preds: make(map[lang.Atom]*predicate), lists: make(map[string]actionList)}
	for _, q := range sp.OrderedQueries() {
		r.byName[q.Name] = len(r.fields)
		r.fields = append(r.fields, FieldInfo{Name: q.Name, Bits: q.Bits, Max: q.DomainMax(), Match: q.Match})
	}
	return r
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
	seq    int            // how many predicates the resolver had made before
}

// predicate interns an atom, creating its synthetic state field on first
// use of the operand.
func (r *resolver) predicate(a lang.Atom) (*predicate, error) {
	a.Pos = lang.Pos{}
	if p, ok := r.preds[a]; ok {
		return p, nil
	}
	idx, err := r.index(a.LHS)
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
	p := &predicate{atom: a, seq: r.made}
	r.made++
	p.con = bdd.Constraint{Field: idx, Set: set, Label: &p.atom}
	if f := r.fields[idx]; f.SelfUpdating() && a.LHS.IsAggregate() {
		u := lang.KeyedStateUpdate(f.StateVar, f.KeyField, a.LHS.Agg, f.BaseField)
		p.update = &u
	}
	r.preds[a] = p
	return p, nil
}

// actionList is one distinct action list, and how many the resolver had
// interned before it.
type actionList struct {
	actions []lang.Action
	seq     int
}

// intern returns the resolver's one action list equal to actions, which a
// copy of becomes when it is the first: rules that do the same thing — most
// of a subscription set forwards to one of its hosts — share one list, and a
// parsed rule's own, in its chunk's arena, is not kept.
func (r *resolver) intern(actions []lang.Action) []lang.Action {
	r.scratch = appendActions(r.scratch[:0], actions)
	if l, ok := r.lists[string(r.scratch)]; ok {
		return l.actions
	}
	kept := slices.Clone(actions)
	for i := range kept {
		kept[i].Ports = slices.Clone(kept[i].Ports)
	}
	r.lists[string(r.scratch)] = actionList{kept, r.listed}
	r.listed++
	return kept
}

// appendActions encodes an action list, positions aside: per action its
// kind, then its ports or its update.
func appendActions(b []byte, actions []lang.Action) []byte {
	for i := range actions {
		a := &actions[i]
		b = append(b, byte(a.Kind))
		if a.Kind == lang.ActState {
			b = appendUpdate(b, a)
			continue
		}
		b = binary.AppendUvarint(b, uint64(len(a.Ports)))
		for _, p := range a.Ports {
			b = binary.AppendUvarint(b, uint64(p))
		}
	}
	return b
}

// newID gives a payload ID: a released one when there is one.
func (r *resolver) newID() int {
	if n := len(r.free); n > 0 {
		id := r.free[n-1]
		r.free = r.free[:n-1]
		return id
	}
	r.actions = append(r.actions, nil)
	return len(r.actions) - 1
}

// release gives back the payload IDs of a rule that resolve returned id and
// conjs for: its own, and its companion's when it has one.
func (r *resolver) release(id int, conjs []bdd.Conj) {
	r.actions[id] = nil
	r.free = append(r.free, id)
	for _, c := range conjs {
		if c.Payload != id {
			r.actions[c.Payload] = nil
			r.free = append(r.free, c.Payload)
			return
		}
	}
}

// resolve lowers one DNF rule to BDD conjunctions, appended to out, and
// returns the payload ID given the rule, an error or not. IDs index the
// resolver's actions table and stay valid until released, so a Session
// keeps resolved rules across recompiles. A rule containing aggregate
// predicates is split per the paper's semantics ("the macro avg stores the
// current average, which is updated when the rest of the rule matches"): the
// aggregate's state update rides on a companion conjunction, under a payload
// ID of its own, whose condition is the original minus the aggregate atoms.
// Rules are resolved one by one in source order, and that order is the
// output's: payload IDs count rules and companions as they come (on a
// resolver that has released none), and a synthetic state field is created
// where its operand first appears. Every atom is resolved, and the error
// returned is the actions' or else the first atom's.
func (r *resolver) resolve(rule *lang.DNFRule, out []bdd.Conj) ([]bdd.Conj, int, error) {
	actions, bad, err := r.canonicalizeActions(rule.Actions)
	if r.seen != nil {
		*r.seen = Resolved{Rule: rule, Atoms: r.seen.Atoms[:0], Action: bad, ActionErr: err}
	}
	ruleID, updateID := r.newID(), -1
	r.actions[ruleID] = r.intern(actions)
	for _, c := range rule.Conjunctions {
		full := bdd.Conj{Payload: ruleID, Constraints: make([]bdd.Constraint, 0, len(c))}
		// The companion condition strips only self-updating macro atoms:
		// reads of explicitly updated variables (keyed or not) carry no
		// implicit update to ride on it. It is begun at the first such
		// atom, so a rule without one pays nothing for it.
		var rest []bdd.Constraint
		hasAggregate := false
		for _, atom := range c {
			p, perr := r.predicate(atom)
			if r.seen != nil {
				ra := ResolvedAtom{Err: perr}
				if p != nil {
					ra.Con = p.con
				}
				r.seen.Atoms = append(r.seen.Atoms, ra)
			}
			if perr != nil {
				err = cmp.Or(err, perr)
				continue
			}
			if p.update != nil {
				if !hasAggregate {
					hasAggregate = true
					rest = append(rest, full.Constraints...)
				}
				if updateID < 0 {
					updateID = r.newID()
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
	if r.seen != nil {
		r.seen.Fields = r.fields
	}
	if err != nil {
		return out, ruleID, fmt.Errorf("rule %d: %w", rule.ID, err)
	}
	return out, ruleID, nil
}

// canonicalizeActions validates keyed state updates and rewrites their
// key to the canonical field name (src -> pkt.src). The resolver keeps a
// copy of the list it returns (intern): a list with a state update in it is
// a copy, so the caller's rules stay untouched, and the update's names are
// copies too — parsed, they are substrings of the rule text (see predicate),
// which intern's copy shares. A forward
// names ports in [0, lang.MaxPort], as the parser has it. An error comes
// with the index of the action it is about.
func (r *resolver) canonicalizeActions(actions []lang.Action) ([]lang.Action, int, error) {
	out := actions
	for i, a := range actions {
		if a.Kind == lang.ActFwd {
			for _, p := range a.Ports {
				if p < 0 || p > lang.MaxPort {
					return nil, i, fmt.Errorf("action %s: port %d out of range [0, %d]", a, p, lang.MaxPort)
				}
			}
		}
		if a.Kind != lang.ActState {
			continue
		}
		keyName := ""
		if a.StateKey != "" {
			var err error
			if keyName, _, err = r.resolveKey(a.StateKey); err != nil {
				return nil, i, fmt.Errorf("action %s: %w", a, err)
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
	return out, 0, nil
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
