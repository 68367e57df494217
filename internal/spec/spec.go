// Package spec implements the message format specification of Figure 2 in
// the paper: P4-style header type declarations extended with annotations
// that mark the fields subscriptions may reference (@query_field,
// @query_field_exact, @query_field_ternary) and declare state variables
// (@query_counter, @query_register).
//
// The specification drives the static compilation step: it determines the
// packet parser, the set of match fields (and their match kinds), the
// BDD's field order, and the register block pre-allocated for state.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// MatchKind is how a field is matched in the generated pipeline. It maps
// directly onto P4 match kinds and onto switch memory types: exact matches
// live in SRAM hash tables, range and ternary matches consume TCAM.
type MatchKind int

// Match kinds.
const (
	MatchRange   MatchKind = iota // default: arbitrary ranges, TCAM-expanded
	MatchExact                    // exact values only, SRAM
	MatchTernary                  // value/mask, TCAM
)

var matchKindNames = [...]string{"range", "exact", "ternary"}

func (k MatchKind) String() string { return matchKindNames[k] }

// Field is one field inside a header type.
type Field struct {
	Name string
	Bits int
	// Offset is the field's bit offset from the start of its header.
	Offset int
}

// HeaderType is a named P4 header type: an ordered list of fields.
type HeaderType struct {
	Name   string
	Fields []Field
}

// Bits returns the total width of the header type.
func (h *HeaderType) Bits() int {
	n := 0
	for _, f := range h.Fields {
		n += f.Bits
	}
	return n
}

// Instance is a header instance: a header type bound to a name
// ("header itch_add_order_t add_order;").
type Instance struct {
	Name string
	Type *HeaderType
}

// QueryField is a field annotated for use in subscriptions. Name is fully
// qualified ("add_order.price").
type QueryField struct {
	Name  string
	Bits  int
	Match MatchKind
	// Order is the field's position in the BDD variable order; defaults to
	// annotation order.
	Order int
	// Instance and Field locate the value inside a parsed packet.
	Instance string
	Field    string
	// ByteOffset/ByteLen locate the field in the serialized header for
	// byte-aligned fields (ByteLen == 0 when not byte-aligned).
	ByteOffset int
	ByteLen    int
	// Line is the 1-based source line of the @query_* annotation (0 for
	// programmatically built specs); diagnostics use it for "declared
	// here" notes.
	Line int
}

// DomainMax returns the largest value representable in the field.
func (q QueryField) DomainMax() uint64 {
	if q.Bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << q.Bits) - 1
}

// StateKind distinguishes the flavors of state variable.
type StateKind int

// State variable kinds.
const (
	StateCounter  StateKind = iota // @query_counter(name, window_us)
	StateRegister                  // @query_register(name, bits)
)

// StateVar is a declared state variable. Counters carry a tumbling-window
// size in microseconds (the paper's example: @query_counter(my_counter,
// 100)); registers carry a width.
type StateVar struct {
	Name     string
	Kind     StateKind
	WindowUS uint64 // StateCounter
	Bits     int    // StateRegister
	Line     int    // declaration line, 0 when built programmatically
}

// Spec is a parsed message format specification.
type Spec struct {
	Types     []*HeaderType
	Instances []*Instance
	Queries   []QueryField
	States    []StateVar

	byQualified map[string]*QueryField
	byShort     map[string][]*QueryField
	stateByName map[string]*StateVar
}

// index (re)builds the lookup maps; called by the parser and by tests that
// build Specs programmatically via AddQueryField.
func (s *Spec) index() {
	s.byQualified = make(map[string]*QueryField, len(s.Queries))
	s.byShort = make(map[string][]*QueryField)
	s.stateByName = make(map[string]*StateVar, len(s.States))
	for i := range s.Queries {
		q := &s.Queries[i]
		s.byQualified[q.Name] = q
		s.byShort[q.Field] = append(s.byShort[q.Field], q)
	}
	for i := range s.States {
		s.stateByName[s.States[i].Name] = &s.States[i]
	}
}

// LookupField resolves a (possibly unqualified) field reference from a
// subscription to its QueryField. An unqualified name resolves when
// exactly one annotated field has that short name.
func (s *Spec) LookupField(name string) (*QueryField, error) {
	if q, ok := s.byQualified[name]; ok {
		return q, nil
	}
	cands := s.byShort[name]
	switch len(cands) {
	case 1:
		return cands[0], nil
	case 0:
		return nil, fmt.Errorf("field %q is not declared as a query field", name)
	default:
		names := make([]string, len(cands))
		for i, c := range cands {
			names[i] = c.Name
		}
		return nil, fmt.Errorf("field %q is ambiguous (candidates: %s)", name, strings.Join(names, ", "))
	}
}

// LookupState resolves a state variable by name.
func (s *Spec) LookupState(name string) (*StateVar, error) {
	if v, ok := s.stateByName[name]; ok {
		return v, nil
	}
	return nil, undeclaredState(name)
}

// undeclaredState is LookupState's miss. The compiler asks after every
// operand, so the message is put together only if somebody reads it.
type undeclaredState string

func (e undeclaredState) Error() string {
	return fmt.Sprintf("state variable %q is not declared", string(e))
}

// OrderedQueries returns the query fields sorted by BDD variable order.
func (s *Spec) OrderedQueries() []QueryField {
	out := append([]QueryField(nil), s.Queries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// SetFieldOrder overrides the BDD variable order. Fields not mentioned
// keep their relative annotation order after the listed ones.
func (s *Spec) SetFieldOrder(names ...string) error {
	rank := make(map[string]int, len(names))
	for i, n := range names {
		q, err := s.LookupField(n)
		if err != nil {
			return err
		}
		rank[q.Name] = i
	}
	next := len(names)
	for i := range s.Queries {
		if r, ok := rank[s.Queries[i].Name]; ok {
			s.Queries[i].Order = r
		} else {
			s.Queries[i].Order = next
			next++
		}
	}
	return nil
}

// AddQueryField registers a query field programmatically (used by tests
// and by applications that construct specs in Go rather than parsing
// Fig. 2-style source).
func (s *Spec) AddQueryField(name string, bits int, match MatchKind) *QueryField {
	inst, field := splitQualified(name)
	q := QueryField{
		Name: name, Bits: bits, Match: match, Order: len(s.Queries),
		Instance: inst, Field: field,
	}
	s.Queries = append(s.Queries, q)
	s.index()
	return &s.Queries[len(s.Queries)-1]
}

// AddCounter registers a counter state variable programmatically.
func (s *Spec) AddCounter(name string, windowUS uint64) {
	s.States = append(s.States, StateVar{Name: name, Kind: StateCounter, WindowUS: windowUS})
	s.index()
}

// AddRegister registers a register state variable programmatically.
func (s *Spec) AddRegister(name string, bits int) {
	s.States = append(s.States, StateVar{Name: name, Kind: StateRegister, Bits: bits})
	s.index()
}

// Validate checks internal consistency: every annotation references a
// declared header field, widths are sane, names are unique.
func (s *Spec) Validate() error {
	seen := make(map[string]bool)
	for _, q := range s.Queries {
		if seen[q.Name] {
			return fmt.Errorf("duplicate query annotation for field %q", q.Name)
		}
		seen[q.Name] = true
		if q.Bits <= 0 || q.Bits > 64 {
			return fmt.Errorf("field %q: width %d bits out of range (1..64)", q.Name, q.Bits)
		}
	}
	stateSeen := make(map[string]bool)
	for _, v := range s.States {
		if stateSeen[v.Name] {
			return fmt.Errorf("duplicate state variable %q", v.Name)
		}
		stateSeen[v.Name] = true
	}
	return nil
}

func splitQualified(name string) (inst, field string) {
	if i := strings.LastIndex(name, "."); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}
