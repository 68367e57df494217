package lang

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Pos is a source position (1-based line and column) attached to AST
// nodes by the parser. The zero Pos means "no position" (programmatically
// built rules).
type Pos struct {
	Line, Col int
}

// IsValid reports whether the position was produced by a parser.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// CmpOp is a relational operator in an atomic predicate. The surface
// language of Figure 1 has ==, < and >; negation during DNF rewriting
// introduces the complements !=, >= and <=.
type CmpOp int

// Relational operators.
const (
	OpEq CmpOp = iota
	OpNeq
	OpLt
	OpGt
	OpLe
	OpGe
)

var cmpOpNames = [...]string{"==", "!=", "<", ">", "<=", ">="}

func (op CmpOp) String() string { return cmpOpNames[op] }

// Negate returns the complementary operator (¬(a == b) ⇒ a != b, etc).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNeq
	case OpNeq:
		return OpEq
	case OpLt:
		return OpGe
	case OpGt:
		return OpLe
	case OpLe:
		return OpGt
	default: // OpGe
		return OpLt
	}
}

// Operand is the left-hand side of an atomic predicate: a header field,
// a state variable, or an aggregate macro over a field (e.g. avg(price)).
// A non-empty Key makes the stateful operand *keyed*: the state is
// addressed per distinct value of the key header field, e.g.
// src_count[source] or avg(temp)[sensor_id].
type Operand struct {
	Field string // header field name, e.g. "add_order.price" or "ip.dst"
	Agg   string // aggregate macro name ("avg", "sum", ...); empty if none
	Key   string // key header field for keyed state, e.g. "pkt.src"; empty if unkeyed
}

// IsAggregate reports whether the operand is a stateful aggregate macro.
func (o Operand) IsAggregate() bool { return o.Agg != "" }

// IsKeyed reports whether the operand addresses per-key state.
func (o Operand) IsKeyed() bool { return o.Key != "" }

func (o Operand) String() string {
	s := o.Field
	if o.Agg != "" {
		s = o.Agg + "(" + o.Field + ")"
	}
	if o.Key != "" {
		s += "[" + o.Key + "]"
	}
	return s
}

// ValueKind distinguishes numeric from symbolic constants.
type ValueKind int

// Value kinds.
const (
	ValNumber ValueKind = iota
	ValSymbol           // bareword or quoted string constant, e.g. GOOGL
)

// Value is the right-hand side constant of an atomic predicate. Symbolic
// values are resolved to numeric encodings against the message format
// specification at compile time.
type Value struct {
	Kind ValueKind
	Num  uint64
	Sym  string
}

// Number returns a numeric Value.
func Number(n uint64) Value { return Value{Kind: ValNumber, Num: n} }

// Symbol returns a symbolic (string) Value.
func Symbol(s string) Value { return Value{Kind: ValSymbol, Sym: s} }

func (v Value) String() string {
	if v.Kind == ValSymbol {
		if isBareSymbol(v.Sym) {
			return v.Sym
		}
		return strconv.Quote(v.Sym)
	}
	return strconv.FormatUint(v.Num, 10)
}

// isBareSymbol reports whether a symbol can be printed without quotes and
// re-parse to the same value: identifier-shaped and not a keyword.
func isBareSymbol(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ident := c == '_' || c == '.' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if !ident || (i == 0 && ((c >= '0' && c <= '9') || c == '.')) {
			return false
		}
	}
	switch strings.ToLower(s) {
	case "and", "or", "not", "true", "fwd", "forward", "drop":
		return false
	}
	return true
}

// Expr is a boolean condition over packet contents.
type Expr interface {
	exprNode()
	String() string
}

// And is conjunction.
type And struct{ L, R Expr }

// Or is disjunction.
type Or struct{ L, R Expr }

// Not is negation.
type Not struct{ X Expr }

// Cmp is an atomic relational predicate: Operand op Value.
//
// Cmp and Atom must keep the same field sequence: DNF rewriting converts
// between them with a direct struct conversion.
type Cmp struct {
	LHS Operand
	Op  CmpOp
	RHS Value
	Pos Pos // position of the operand, when parsed from source
}

// True is the always-true condition (an empty conjunction; used for
// default/catch-all rules).
type True struct{}

func (And) exprNode()  {}
func (Or) exprNode()   {}
func (Not) exprNode()  {}
func (Cmp) exprNode()  {}
func (True) exprNode() {}

func (e And) String() string  { return fmt.Sprintf("(%s && %s)", e.L, e.R) }
func (e Or) String() string   { return fmt.Sprintf("(%s || %s)", e.L, e.R) }
func (e Not) String() string  { return fmt.Sprintf("!%s", e.X) }
func (e True) String() string { return "true" }
func (e Cmp) String() string  { return Atom(e).String() }

// ActionKind enumerates the action forms of Figure 1.
type ActionKind int

// Action kinds.
const (
	ActFwd ActionKind = iota
	ActDrop
	ActState // v <- f(args)
)

// Action is one element of a rule's action list. Forwarding actions carry
// the output port set (unicast when len==1, multicast otherwise). State
// actions name the state variable, the update function, and its arguments;
// a non-empty StateKey makes the update keyed (v[key] <- f(args)), one
// state cell per distinct value of the key header field.
type Action struct {
	Kind     ActionKind
	Ports    []int    // ActFwd
	Var      string   // ActState: destination state variable
	StateKey string   // ActState: key header field for keyed state; empty if unkeyed
	Func     string   // ActState: update function, e.g. "count", "add"
	Args     []string // ActState: argument names (fields or variables)
	Pos      Pos      // position of the action keyword, when parsed
}

// Fwd builds a forwarding action for the given ports.
func Fwd(ports ...int) Action {
	sorted := append([]int(nil), ports...)
	sort.Ints(sorted)
	return Action{Kind: ActFwd, Ports: sorted}
}

// Drop builds a drop action.
func Drop() Action { return Action{Kind: ActDrop} }

// KeyedStateUpdate builds a state-update action v[key] <- f(args...), or
// v <- f(args...) when key is empty.
func KeyedStateUpdate(v, key, fn string, args ...string) Action {
	return Action{Kind: ActState, Var: v, StateKey: key, Func: fn, Args: args}
}

func (a Action) String() string {
	switch a.Kind {
	case ActFwd:
		parts := make([]string, len(a.Ports))
		for i, p := range a.Ports {
			parts[i] = fmt.Sprintf("%d", p)
		}
		return fmt.Sprintf("fwd(%s)", strings.Join(parts, ","))
	case ActDrop:
		return "drop()"
	default:
		v := a.Var
		if a.StateKey != "" {
			v += "[" + a.StateKey + "]"
		}
		return fmt.Sprintf("%s <- %s(%s)", v, a.Func, strings.Join(a.Args, ","))
	}
}

// Equal reports structural equality of actions, ignoring source
// positions.
func (a Action) Equal(b Action) bool {
	if a.Kind != b.Kind || a.Var != b.Var || a.StateKey != b.StateKey || a.Func != b.Func {
		return false
	}
	if len(a.Ports) != len(b.Ports) || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Ports {
		if a.Ports[i] != b.Ports[i] {
			return false
		}
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the action, usable as a map key.
func (a Action) Key() string { return a.String() }

// Rule is a condition-action subscription rule (r ::= c : a in Figure 1).
type Rule struct {
	Cond    Expr
	Actions []Action
	// ID is the rule's position in its source rule set; useful in
	// diagnostics and for deterministic ordering.
	ID int
	// Pos is the source position of the rule's first token, when the
	// rule was parsed from source.
	Pos Pos
}

func (r Rule) String() string {
	acts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		acts[i] = a.String()
	}
	return fmt.Sprintf("%s : %s", r.Cond, strings.Join(acts, "; "))
}

// Atom is an atomic predicate in a DNF conjunction. The field sequence
// must mirror Cmp (see there).
type Atom struct {
	LHS Operand
	Op  CmpOp
	RHS Value
	Pos Pos
}

func (a Atom) String() string { return a.LHS.String() + " " + a.Op.String() + " " + a.RHS.String() }

// SameAtom reports equality of the predicate itself, ignoring source
// positions. DNF canonicalization dedups with this so that the same
// predicate written twice at different positions still collapses.
func (a Atom) SameAtom(b Atom) bool {
	return a.LHS == b.LHS && a.Op == b.Op && a.RHS == b.RHS
}

// Conjunction is a set of atoms that must all hold.
type Conjunction []Atom

func (c Conjunction) String() string {
	if len(c) == 0 {
		return "true"
	}
	parts := make([]string, len(c))
	for i, a := range c {
		parts[i] = a.String()
	}
	return strings.Join(parts, " && ")
}

// DNFRule is a rule whose condition has been normalized to a disjunction
// of conjunctions. Each conjunction independently triggers the actions.
type DNFRule struct {
	Conjunctions []Conjunction
	Actions      []Action
	ID           int
	Pos          Pos // the rule's
}
