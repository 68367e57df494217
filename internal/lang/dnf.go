package lang

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// MaxDNFTerms caps the number of conjunctions a single rule may expand to
// during DNF normalization, guarding against pathological (exponential)
// conditions. 64 predicates of alternating ∧/∨ stay well below this.
const MaxDNFTerms = 1 << 16

var errTooManyTerms = fmt.Errorf("condition expands to more than %d DNF terms", MaxDNFTerms)

// ToDNF normalizes a rule's condition into disjunctive normal form: a set
// of conjunctions of atomic predicates, as required by the BDD builder
// (§3.2 "The subscription rules are first normalized into disjunctive
// form"). Structurally contradictory conjunctions (x == 5 && x == 6) are
// dropped; duplicate atoms are merged. The empty conjunction denotes
// "always true".
func ToDNF(r Rule) (DNFRule, error) {
	var a Arena
	if err := a.Normalize(r); err != nil {
		return DNFRule{}, err
	}
	return a.rules[0], nil
}

// RuleError is a rule that cannot be brought to normal form.
type RuleError struct {
	ID  int
	Pos Pos
	Err error
}

func (e *RuleError) Error() string { return fmt.Sprintf("rule %d: %v", e.ID, e.Err) }

func (e *RuleError) Unwrap() error { return e.Err }

// NormalizeAll applies ToDNF to each rule, stopping at the first that fails.
func NormalizeAll(rules []Rule) ([]DNFRule, error) {
	a := Arena{rules: make([]DNFRule, 0, len(rules))}
	a.reserve(len(rules))
	for _, r := range rules {
		if err := a.Normalize(r); err != nil {
			return nil, err
		}
	}
	return a.rules, nil
}

// Arena holds rules in disjunctive normal form, brought there from rule text
// in one pass (ParseLines: the grammar feeds the normal form, with no syntax
// tree) or folded from parsed rules (Normalize). Their atoms, conjunctions,
// actions and ports are parts of a few arrays the arena grows and, after
// Reset, reuses: a rule it holds is valid until then, and what must outlive
// it is copied out. Its strings are the rule text's.
type Arena struct {
	rules   []DNFRule
	conjs   []Conjunction
	atoms   []Atom // the rules' atoms, then the stack of the rule being normalized
	actions []Action
	ports   []int
	first   error // the first rule ParseLines could not normalize

	// The rule being normalized: its terms, bounds in atoms past base, and
	// the error that ends it.
	terms [][2]int32
	base  int
	err   error
}

// Reset empties the arena, keeping its memory for the next rules.
func (a *Arena) Reset() {
	a.rules, a.conjs, a.atoms, a.terms = a.rules[:0], a.conjs[:0], a.atoms[:0], a.terms[:0]
	a.actions, a.ports, a.first, a.base, a.err = a.actions[:0], a.ports[:0], nil, 0, nil
}

// reserve makes room for n more rules of Fig. 5c's shape, a forward and two
// atoms: arrays grown by append alone are made several times over.
func (a *Arena) reserve(n int) {
	a.rules, a.conjs = slices.Grow(a.rules, n), slices.Grow(a.conjs, n)
	a.actions, a.ports, a.atoms = slices.Grow(a.actions, n), slices.Grow(a.ports, n), slices.Grow(a.atoms, 2*n)
}

// Rules is the rules the arena holds, in the order given, or the error of
// the first rule ParseLines could not bring to normal form.
func (a *Arena) Rules() ([]DNFRule, error) {
	if a.first != nil {
		return nil, a.first
	}
	return a.rules, nil
}

// Normalize brings r to normal form, as ToDNF does, and adds it to the
// arena. The rule's actions are r's.
func (a *Arena) Normalize(r Rule) error {
	return a.finish(a.fold(r.Cond, false), r.Actions, r.ID, r.Pos)
}

// ParseLines parses the lines of src from first to last as ParseLines does,
// and adds their rules to the arena in normal form. It returns the run's
// syntax error. A rule that parses but has no normal form is reported by
// Rules, unless a syntax error follows it in the arena: the error is the one
// a parse of the whole run before any of it is normalized would give.
func (a *Arena) ParseLines(src string, first, last Line) error {
	a.reserve(last.ID - first.ID + 1)
	p := linesParser(src, first, last)
	g := grammar[terms, dnf]{p: p, s: dnf{a}}
	return p.rules(func(id int, pos Pos) error {
		a.err = a.first // once a rule has failed, the rest are only parsed
		n := len(a.actions)
		cond, actions, ports, err := g.rule(a.actions, a.ports)
		if err != nil {
			return err
		}
		a.actions, a.ports = actions, ports
		if err := a.finish(cond, actions[n:len(actions):len(actions)], id, pos); a.first == nil {
			a.first = err
		}
		return nil
	})
}

// terms is a condition in normal form on an arena's stack: the terms from
// a.terms[t] to the top, whose atoms are a.atoms[at:] in term order.
type terms struct{ t, at int32 }

// dnf is the sink that brings a condition to normal form. Negation is
// pushed down to the atoms: under an odd number of '!' an atom is negated
// and ∧ and ∨ trade places (De Morgan). A node's operands are the top two
// values on the stack; what it makes replaces them. Once a rule has failed
// (a.err) nothing more is made of it.
type dnf struct{ a *Arena }

func (s dnf) top() terms { return terms{int32(len(s.a.terms)), int32(len(s.a.atoms))} }

func (s dnf) atom(x *Atom, neg bool) terms {
	a, v := s.a, s.top()
	if a.err == nil {
		a.atoms = append(a.atoms, *x)
		if neg {
			a.atoms[v.at].Op = x.Op.Negate()
		}
		a.terms = append(a.terms, [2]int32{v.at, v.at + 1})
	}
	return v
}

// truth is one empty term, and !true none.
func (s dnf) truth(neg bool) terms {
	v := s.top()
	if !neg && s.a.err == nil {
		s.a.terms = append(s.a.terms, [2]int32{v.at, v.at})
	}
	return v
}

func (dnf) not(x terms) terms { return x }

// join is l ∧ r, or l ∨ r: under negation, the other. A disjunction is l's
// terms, then r's, which already lie so; a conjunction is every term of l
// joined with every term of r, in that order.
func (s dnf) join(and bool, l, r terms, neg bool) terms {
	a := s.a
	nl, nr := int(r.t-l.t), len(a.terms)-int(r.t)
	switch {
	case a.err != nil:
	case and == neg:
		if nl+nr > MaxDNFTerms {
			a.err = errTooManyTerms
		}
	case nl == 1 && nr == 1:
		// A chain of atoms — most rules — is one term, whose atoms lie
		// together already.
		a.terms[l.t][1] = a.terms[r.t][1]
		a.terms = a.terms[:r.t]
	case nl*nr > MaxDNFTerms:
		a.err = errTooManyTerms
	default:
		// Build the products past the operands, then move them down.
		t0, s0, at := int32(len(a.terms)), len(a.atoms), l.at
		for i := l.t; i < r.t; i++ {
			for j := r.t; j < t0; j++ {
				x, y := a.terms[i], a.terms[j]
				a.atoms = append(append(a.atoms, a.atoms[x[0]:x[1]]...), a.atoms[y[0]:y[1]]...)
				n := x[1] - x[0] + y[1] - y[0]
				a.terms = append(a.terms, [2]int32{at, at + n})
				at += n
			}
		}
		a.atoms = append(a.atoms[:l.at], a.atoms[s0:]...)
		a.terms = append(a.terms[:l.t], a.terms[t0:]...)
	}
	return l
}

// fold hands the tree e to the normal form, as the grammar hands it the
// rule text.
func (a *Arena) fold(e Expr, neg bool) terms {
	s := dnf{a}
	switch e := e.(type) {
	case True:
		return s.truth(neg)
	case Cmp:
		return s.atom((*Atom)(&e), neg)
	case Not:
		return s.not(a.fold(e.X, !neg))
	case And:
		return s.join(true, a.fold(e.L, neg), a.fold(e.R, neg), neg)
	case Or:
		return s.join(false, a.fold(e.L, neg), a.fold(e.R, neg), neg)
	}
	if a.err == nil {
		a.err = fmt.Errorf("unknown expression type %T", e)
		if e == nil {
			a.err = errors.New("nil condition")
		}
	}
	return s.top()
}

// finish ends the rule whose condition is v: each term is simplified in
// place, a contradiction or a repeat of an earlier term is dropped, and the
// terms kept are moved down to base, where the next rule's stack begins.
func (a *Arena) finish(v terms, actions []Action, id int, pos Pos) error {
	err, ts, w, n := a.err, a.terms[v.t:], a.base, len(a.conjs)
	if err != nil {
		ts = nil
	}
	var seen map[string]bool // only a rule of several terms can repeat one
	if len(ts) > 1 {
		seen = make(map[string]bool, len(ts))
	}
	if a.atoms == nil {
		a.atoms = make([]Atom, 0, 16) // an empty term is never nil
	}
	for _, t := range ts {
		c, ok := simplifyConjunction(a.atoms[t[0]:t[1]])
		if !ok {
			continue // contradiction: never matches
		}
		if seen != nil {
			if key := c.String(); seen[key] {
				continue
			} else {
				seen[key] = true
			}
		}
		copy(a.atoms[w:], c)
		a.conjs = append(a.conjs, a.atoms[w:w+len(c):w+len(c)])
		w += len(c)
	}
	a.atoms, a.terms, a.base, a.err = a.atoms[:w], a.terms[:0], w, nil
	if err != nil {
		return &RuleError{ID: id, Pos: pos, Err: err}
	}
	r := DNFRule{Actions: actions, ID: id, Pos: pos}
	if len(a.conjs) > n {
		r.Conjunctions = a.conjs[n:len(a.conjs):len(a.conjs)]
	}
	a.rules = append(a.rules, r)
	return nil
}

// simplifyConjunction canonicalizes a conjunction: atoms are sorted and
// deduplicated, and structurally contradictory combinations on the same
// operand are detected. It returns ok=false when the conjunction can never
// match. Numeric (interval-level) contradictions that depend on field
// widths are detected later by the BDD builder. c is sorted and compacted
// in place: the caller hands over a term built for it.
func simplifyConjunction(c Conjunction) (Conjunction, bool) {
	slices.SortFunc(c, atomCompare)
	out := c[:0]
	for i, a := range c {
		// Compare with SameAtom, not struct equality: the same predicate
		// written at two source positions must still deduplicate, keeping
		// normalized output identical to the pre-position parser's.
		if i > 0 && a.SameAtom(c[i-1]) {
			continue
		}
		out = append(out, a)
	}
	// Detect equality contradictions per operand.
	for _, a := range out {
		if a.Op != OpEq {
			continue
		}
		for _, b := range out {
			if b.LHS != a.LHS {
				continue
			}
			if b.Op == OpEq && b.RHS != a.RHS {
				return nil, false // x == v1 && x == v2, v1 != v2
			}
			if b.Op == OpNeq && b.RHS == a.RHS {
				return nil, false // x == v && x != v
			}
		}
	}
	return out, true
}

func atomCompare(a, b Atom) int {
	return cmp.Or(strings.Compare(a.LHS.Field, b.LHS.Field), strings.Compare(a.LHS.Agg, b.LHS.Agg),
		cmp.Compare(a.Op, b.Op), cmp.Compare(a.RHS.Kind, b.RHS.Kind), cmp.Compare(a.RHS.Num, b.RHS.Num),
		strings.Compare(a.RHS.Sym, b.RHS.Sym))
}
