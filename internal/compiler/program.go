package compiler

import (
	"encoding/binary"
	"fmt"
	"strings"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// EntryKind describes how a single table entry matches the field value.
type EntryKind int

// Entry kinds.
const (
	EntryExact EntryKind = iota // value == Lo
	EntryRange                  // Lo <= value <= Hi
	EntryWild                   // any value (per-state default, the '*' rows of Fig. 4)
)

func (k EntryKind) String() string {
	switch k {
	case EntryExact:
		return "exact"
	case EntryRange:
		return "range"
	default:
		return "*"
	}
}

// Entry is one row of a field table: match on (entry state, field value),
// action sets the next BDD state (Fig. 4). Higher Priority wins when
// entries overlap (wildcards are lowest priority).
type Entry struct {
	State    int
	Kind     EntryKind
	Lo, Hi   uint64
	Next     int
	Priority int
}

// Matches reports whether the entry matches the given state and value.
func (e Entry) Matches(state int, value uint64) bool {
	if e.State != state {
		return false
	}
	switch e.Kind {
	case EntryExact:
		return value == e.Lo
	case EntryRange:
		return e.Lo <= value && value <= e.Hi
	default:
		return true
	}
}

func (e Entry) String() string {
	var m string
	switch e.Kind {
	case EntryExact:
		m = fmt.Sprintf("%d", e.Lo)
	case EntryRange:
		m = fmt.Sprintf("[%d,%d]", e.Lo, e.Hi)
	default:
		m = "*"
	}
	return fmt.Sprintf("(state=%d, %s) -> state %d", e.State, m, e.Next)
}

// Table is one pipeline stage's match-action table. Field indexes the
// program's field list; the leaf table uses Field == -1 and its entries'
// Next values index Program.Actions instead of states.
type Table struct {
	Name    string
	Field   int
	Match   spec.MatchKind
	Entries []Entry

	// Codec, when non-nil, says the field value is first mapped through a
	// domain-compression stage and the entries match on codes (§3.2,
	// third resource optimization).
	Codec *DomainCodec
}

// Lookup finds the highest-priority matching entry. ok is false on a miss
// (the pipeline then applies the default action: keep state / drop at
// leaf).
func (t *Table) Lookup(state int, value uint64) (Entry, bool) {
	if t.Codec != nil {
		value = t.Codec.Code(value)
	}
	best := -1
	for i := range t.Entries {
		if t.Entries[i].Matches(state, value) {
			if best < 0 || t.Entries[i].Priority > t.Entries[best].Priority {
				best = i
			}
		}
	}
	if best < 0 {
		return Entry{}, false
	}
	return t.Entries[best], true
}

// ActionSet is the merged action of one BDD terminal: the union of the
// actions of every rule matching the packet. Forwarding port sets from
// multiple rules merge into one (possibly multicast) forward. An ActionSet
// is immutable once the compiler has produced it.
type ActionSet struct {
	Ports   []int // sorted, deduplicated output ports
	Drop    bool  // explicit drop() (also the default when no rule matches)
	Updates []lang.Action
	// Group is the multicast group ID when len(Ports) > 1, else -1.
	Group int

	key string // Key(), encoded once when the compiler merged the set
}

// String renders the action set in the surface syntax, for people.
func (a ActionSet) String() string {
	var parts []string
	if len(a.Ports) > 0 {
		parts = append(parts, "fwd("+lang.FormatPorts(a.Ports)+")")
	} else if a.Drop || len(a.Updates) == 0 {
		parts = append(parts, "drop()") // forwarding nowhere and updating nothing is a drop, said or not
	}
	for _, u := range a.Updates {
		parts = append(parts, u.String())
	}
	return strings.Join(parts, "; ")
}

// Key returns the action set's identity: a binary string that two sets
// share exactly when they do the same thing to a packet (same ports, same
// updates in order, same choice between dropping and only updating state).
// It holds across programs — Group, a per-program number, is not part of it
// — so the control plane can match old actions against new.
func (a ActionSet) Key() string {
	if a.key != "" {
		return a.key
	}
	return string(a.appendKey(nil))
}

func (a ActionSet) appendKey(b []byte) []byte {
	b = appendPorts(b, a.Ports)
	if len(a.Ports) == 0 && (a.Drop || len(a.Updates) == 0) { // as String has it
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for i := range a.Updates {
		b = appendUpdate(b, &a.Updates[i])
	}
	return b
}

// appendUpdate writes a state update as its argument count, then
// length-prefixed strings.
func appendUpdate(b []byte, u *lang.Action) []byte {
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	b = binary.AppendUvarint(b, uint64(len(u.Args)))
	str(u.Var)
	str(u.StateKey)
	str(u.Func)
	for _, s := range u.Args {
		str(s)
	}
	return b
}

// appendPorts writes a port list length-prefixed, a varint per port.
func appendPorts(b []byte, ports []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(ports)))
	for _, p := range ports {
		b = binary.AppendUvarint(b, uint64(p))
	}
	return b
}

// Stats summarizes the compiled program's switch resource usage.
type Stats struct {
	Rules           int
	Conjunctions    int
	BDDNodes        int
	BDDTerminals    int
	States          int
	TableEntries    int // logical entries across all field tables + leaf
	LeafEntries     int
	SRAMEntries     int // exact entries
	TCAMEntries     int // range/wildcard entries after prefix expansion
	MulticastGroups int
	CodecEntries    int // domain-compression mapping entries
}

func (s Stats) String() string {
	return fmt.Sprintf("rules=%d conj=%d bddNodes=%d states=%d entries=%d (sram=%d tcam=%d codec=%d) groups=%d",
		s.Rules, s.Conjunctions, s.BDDNodes, s.States, s.TableEntries, s.SRAMEntries, s.TCAMEntries, s.CodecEntries, s.MulticastGroups)
}

// Program is a compiled subscription set: the static pipeline layout plus
// the dynamic table entries, ready to install on a switch (simulated or
// real) via the control plane.
type Program struct {
	Spec   *spec.Spec
	Fields []FieldInfo
	BDD    *bdd.BDD

	Tables []*Table // one per field, in field order
	Leaf   *Table   // terminal table: state -> action index

	Actions []ActionSet
	Groups  [][]int // multicast groups: group ID -> port set

	InitialState int
	Stats        Stats

	// conjs are the resolved conjunctions the program was built from: what
	// Trace evaluates to say which rules a packet matched (the BDD's
	// terminals are action classes and name no rule).
	conjs []bdd.Conj
	// stateOf maps BDD node IDs to pipeline state numbers, -1 for the
	// nodes that carry none (interior nodes of a field's component).
	stateOf []int
}

// StateOf exposes the BDD-node → pipeline-state mapping (testing).
func (p *Program) StateOf(nodeID int) (int, bool) {
	if nodeID < 0 || nodeID >= len(p.stateOf) || p.stateOf[nodeID] < 0 {
		return 0, false
	}
	return p.stateOf[nodeID], true
}

// RemapStates renumbers pipeline states in place (entries, leaf, initial
// state): state s becomes remap(s).
func (p *Program) RemapStates(remap func(s int) int) {
	for _, t := range p.Tables {
		for i := range t.Entries {
			t.Entries[i].State = remap(t.Entries[i].State)
			t.Entries[i].Next = remap(t.Entries[i].Next)
		}
	}
	for i := range p.Leaf.Entries {
		p.Leaf.Entries[i].State = remap(p.Leaf.Entries[i].State)
	}
	p.InitialState = remap(p.InitialState)
	for nodeID, st := range p.stateOf {
		if st >= 0 {
			p.stateOf[nodeID] = remap(st)
		}
	}
}

// Dot renders the BDD in Graphviz dot format, every terminal labelled with
// its action set as in Figure 3 of the paper.
func (p *Program) Dot() string {
	return p.BDD.Dot(func(n *bdd.Node) string {
		e, _ := p.Leaf.Lookup(p.stateOf[n.ID], 0)
		return p.Actions[e.Next].String()
	})
}

// NumStates returns the number of distinct pipeline states.
func (p *Program) NumStates() int { return p.Stats.States }

// Evaluate runs a packet's field values (indexed like Program.Fields)
// through the compiled tables and returns the resulting action set. This
// is the software reference for the hardware pipeline; internal/pipeline
// implements the same semantics with resource modeling.
func (p *Program) Evaluate(values []uint64) ActionSet {
	state := p.InitialState
	for i, t := range p.Tables {
		if e, ok := t.Lookup(state, values[i]); ok {
			state = e.Next
		}
	}
	if e, ok := p.Leaf.Lookup(state, 0); ok {
		return p.Actions[e.Next]
	}
	return ActionSet{Drop: true, Group: -1}
}

// EntriesTotal returns the total number of logical table entries.
func (p *Program) EntriesTotal() int {
	n := len(p.Leaf.Entries)
	for _, t := range p.Tables {
		n += len(t.Entries)
		if t.Codec != nil {
			n += len(t.Codec.Bounds)
		}
	}
	return n
}

// Dump renders the tables in the style of Figure 4 (for debugging and the
// quickstart example).
func (p *Program) Dump() string {
	var b strings.Builder
	for i, t := range p.Tables {
		fmt.Fprintf(&b, "%s table (%s):\n", p.Fields[i].Name, t.Match)
		for _, e := range t.Entries {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	b.WriteString("leaf table:\n")
	for _, e := range p.Leaf.Entries {
		fmt.Fprintf(&b, "  (state=%d) -> %s\n", e.State, p.Actions[e.Next])
	}
	return b.String()
}
