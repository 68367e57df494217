package lang

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// MaxDNFTerms caps the number of conjunctions a single rule may expand to
// during DNF normalization, guarding against pathological (exponential)
// conditions. 64 predicates of alternating ∧/∨ stay well below this.
const MaxDNFTerms = 1 << 16

// ToDNF normalizes a rule's condition into disjunctive normal form: a set
// of conjunctions of atomic predicates, as required by the BDD builder
// (§3.2 "The subscription rules are first normalized into disjunctive
// form"). Structurally contradictory conjunctions (x == 5 && x == 6) are
// dropped; duplicate atoms are merged. The empty conjunction denotes
// "always true".
func ToDNF(r Rule) (DNFRule, error) {
	terms, err := dnf(r.Cond)
	if err != nil {
		return DNFRule{}, &RuleError{ID: r.ID, Pos: r.Pos, Err: err}
	}
	out := DNFRule{Actions: r.Actions, ID: r.ID, Pos: r.Pos}
	var seen map[string]bool // only a rule of several terms can repeat one
	if len(terms) > 1 {
		seen = make(map[string]bool, len(terms))
	}
	for _, t := range terms {
		c, ok := simplifyConjunction(t)
		if !ok {
			continue // contradiction: never matches
		}
		if seen != nil {
			key := c.String()
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		out.Conjunctions = append(out.Conjunctions, c)
	}
	return out, nil
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
	out := make([]DNFRule, len(rules))
	for i, r := range rules {
		var err error
		if out[i], err = ToDNF(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dnf converts an expression in negation-normal form to DNF term lists.
// Negations are pushed down on the fly (there is no separate NNF pass).
func dnf(e Expr) ([]Conjunction, error) {
	switch e := e.(type) {
	case True:
		return []Conjunction{{}}, nil
	case Cmp:
		return []Conjunction{{Atom(e)}}, nil
	case Not:
		return dnfNegated(e.X)
	case Or:
		l, err := dnf(e.L)
		if err != nil {
			return nil, err
		}
		r, err := dnf(e.R)
		if err != nil {
			return nil, err
		}
		if len(l)+len(r) > MaxDNFTerms {
			return nil, fmt.Errorf("condition expands to more than %d DNF terms", MaxDNFTerms)
		}
		return append(l, r...), nil
	case And:
		l, err := dnf(e.L)
		if err != nil {
			return nil, err
		}
		r, err := dnf(e.R)
		if err != nil {
			return nil, err
		}
		if len(l) == 1 && len(r) == 1 {
			// A chain of atoms — most rules — extends its one term in
			// place: every term dnf returns is freshly built, so nothing
			// else holds l[0].
			l[0] = append(l[0], r[0]...)
			return l, nil
		}
		if len(l)*len(r) > MaxDNFTerms {
			return nil, fmt.Errorf("condition expands to more than %d DNF terms", MaxDNFTerms)
		}
		out := make([]Conjunction, 0, len(l)*len(r))
		for _, a := range l {
			for _, b := range r {
				c := make(Conjunction, 0, len(a)+len(b))
				c = append(c, a...)
				c = append(c, b...)
				out = append(out, c)
			}
		}
		return out, nil
	case nil:
		return nil, fmt.Errorf("nil condition")
	default:
		return nil, fmt.Errorf("unknown expression type %T", e)
	}
}

// dnfNegated computes dnf(!e) using De Morgan's laws.
func dnfNegated(e Expr) ([]Conjunction, error) {
	switch e := e.(type) {
	case True:
		return nil, nil // !true matches nothing: empty disjunction
	case Cmp:
		return []Conjunction{{Atom{LHS: e.LHS, Op: e.Op.Negate(), RHS: e.RHS, Pos: e.Pos}}}, nil
	case Not:
		return dnf(e.X)
	case And: // !(a && b) == !a || !b
		return dnf(Or{L: Not{X: e.L}, R: Not{X: e.R}})
	case Or: // !(a || b) == !a && !b
		return dnf(And{L: Not{X: e.L}, R: Not{X: e.R}})
	case nil:
		return nil, fmt.Errorf("nil condition")
	default:
		return nil, fmt.Errorf("unknown expression type %T", e)
	}
}

// simplifyConjunction canonicalizes a conjunction: atoms are sorted and
// deduplicated, and structurally contradictory combinations on the same
// operand are detected. It returns ok=false when the conjunction can never
// match. Numeric (interval-level) contradictions that depend on field
// widths are detected later by the BDD builder. c is sorted and compacted
// in place: the caller hands over a term dnf built for it.
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
