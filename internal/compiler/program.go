package compiler

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
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
// and either move the packet to the next BDD state (Fig. 4) or, when the
// row's Out node is a terminal, decide it with that terminal's action set
// and leave the state alone. Higher Priority wins when entries overlap
// (wildcards are lowest priority).
type Entry struct {
	State  int
	Kind   EntryKind
	Lo, Hi uint64
	// Next is the row's target, read through Decides: a state, or an
	// action set.
	Next     int
	Priority int
}

// Decides reads a row's target, Entry.Next. A row whose Out node is a
// terminal decides the packet: it names that terminal's action set, action
// indexing Program.Actions, and ok is true. Any other row moves the packet
// to state next.
//
//camus:hotpath
func Decides(next int) (action int, ok bool) { return ^next, next < 0 }

// decision is the target of a row that decides with Actions[action].
func decision(action int) int { return ^action }

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
	if a, ok := Decides(e.Next); ok {
		return fmt.Sprintf("%s -> action %d", e.match(), a)
	}
	return fmt.Sprintf("%s -> state %d", e.match(), e.Next)
}

// match renders what the row matches.
func (e Entry) match() string {
	switch e.Kind {
	case EntryExact:
		return fmt.Sprintf("(state=%d, %d)", e.State, e.Lo)
	case EntryRange:
		return fmt.Sprintf("(state=%d, [%d,%d])", e.State, e.Lo, e.Hi)
	default:
		return fmt.Sprintf("(state=%d, *)", e.State)
	}
}

// Table is one pipeline stage's match-action table. Field indexes the
// program's field list; the leaf table, the stage that runs state updates,
// uses Field == -1 (see Program.Leaf).
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
// (the pipeline then applies the table's default action: keep the state).
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
	Ports   PortSet // output ports
	Drop    bool    // explicit drop() (also the default when no rule matches)
	Updates []lang.Action
	// Group is the multicast group ID when Ports has more than one port,
	// else -1.
	Group int

	sum sum128 // Sum(), kept from the class the compiler merged the set as
}

// String renders the action set in the surface syntax, for people.
func (a ActionSet) String() string {
	var parts []string
	if a.Ports.Len() > 0 {
		parts = append(parts, "fwd("+lang.FormatPorts(a.Ports.AppendTo(nil))+")")
	} else if a.drops() {
		parts = append(parts, "drop()") // forwarding nowhere and updating nothing is a drop, said or not
	}
	for _, u := range a.Updates {
		parts = append(parts, u.String())
	}
	return strings.Join(parts, "; ")
}

// doesNothing reports whether the set forwards nowhere and updates nothing:
// what a leaf miss does, so no row need lead to it.
func (a ActionSet) doesNothing() bool { return a.Ports.Len() == 0 && len(a.Updates) == 0 }

// drops reports whether the set drops the packet: it forwards nowhere, and
// said drop() or updates nothing.
func (a ActionSet) drops() bool { return a.Ports.Len() == 0 && (a.Drop || len(a.Updates) == 0) }

// Sum is the action set's identity: the order-free sum of the content
// hashes of its ports, its state updates and, when it drops, the drop (see
// classArena). Two sets share it exactly when they do the same thing to a
// packet, up to the odds of two random 128-bit values colliding. It holds
// across programs — Group, a per-program number, is not part of it — so the
// control plane matches old actions against new by it. A compiled set
// carries the sum it was merged under; any other is summed here.
func (a ActionSet) Sum() [2]uint64 {
	s := a.sum
	if s == (sum128{}) {
		for it := a.Ports.Iter(); it.Next(); {
			s = s.plus(portHash(it.Port()))
		}
		var b []byte
		for i := range a.Updates {
			b = appendUpdate(b[:0], &a.Updates[i])
			s = s.plus(updateHash(b))
		}
		if a.drops() {
			s = s.plus(dropHash)
		}
	}
	return [2]uint64{s.a, s.b}
}

// Key encodes the action set's identity as a binary string that two sets
// share exactly when they do the same thing to a packet (same ports, same
// updates in order, same choice between dropping and only updating state).
// The control plane reads Sum; Key is for tools and tests.
func (a ActionSet) Key() string {
	b := appendPorts(nil, a.Ports)
	if a.drops() { // as String has it
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for i := range a.Updates {
		b = appendUpdate(b, &a.Updates[i])
	}
	return string(b)
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

// appendPorts writes a port set length-prefixed, a varint per port.
func appendPorts(b []byte, ports PortSet) []byte {
	b = binary.AppendUvarint(b, uint64(ports.Len()))
	for it := ports.Iter(); it.Next(); {
		b = binary.AppendUvarint(b, uint64(it.Port()))
	}
	return b
}

// Stats summarizes the compiled program's switch resource usage.
type Stats struct {
	Rules           int
	Conjunctions    int
	BDDNodes        int
	BDDTerminals    int
	States          int // In nodes: a terminal is an action, not a state
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
// real) via the control plane. It keeps what the device runs and what the
// next install diffs against; the diagram it was lowered from, and the
// conjunctions, belong to the Pass that compiled it.
type Program struct {
	Spec   *spec.Spec
	Fields []FieldInfo

	Tables []*Table // one per field, in field order
	// Leaf is the last stage, which runs state updates: one exact entry per
	// action set with updates, matching the index of the action set a row
	// decided (Lo); or, for a diagram that is a single terminal doing
	// something, that terminal as the stage's default, a wildcard. A
	// packet no row decided, and no default takes, drops.
	Leaf *Table

	Actions []ActionSet // one per terminal, in the order assignStates meets them
	Groups  []PortSet   // multicast groups: group ID -> ports, shared with the actions

	// Signatures holds one entry per pipeline state, ascending by signature,
	// then state.
	Signatures []StateSig

	InitialState int
	Stats        Stats
}

// StateSig is a pipeline state beside its behavioural signature: a hash of
// the sub-diagram the state stands for — each node's field name and
// intervals mixed with its children's signatures, a terminal being its
// action set's Sum. Two states share one exactly when the packets reaching
// them are treated alike, however either program numbers them, up to the
// odds of two random 128-bit values colliding; the control plane pairs a new
// program's states with the running one's by it.
type StateSig struct {
	Sig   [2]uint64
	State int
}

func (s StateSig) compare(t StateSig) int {
	return cmp.Or(slices.Compare(s.Sig[:], t.Sig[:]), cmp.Compare(s.State, t.State))
}

// signatures fills in Signatures from the diagram the program is lowered
// from, b, and its node index (assignStates). A node's children have
// smaller IDs, so one pass in ID order meets them first.
func (p *Program) signatures(b *bdd.BDD, index []int, states int) {
	named := make([]contentHash, len(p.Fields)) // each field's name, hashed
	for f := range p.Fields {
		named[f] = hashIn(stateDomain).text(p.Fields[f].Name)
	}
	sigs := make([][2]uint64, b.NumNodes())
	p.Signatures = make([]StateSig, 0, states)
	for _, n := range b.Nodes() {
		if n.IsTerminal() {
			sigs[n.ID] = p.Actions[index[n.ID]].Sum()
			continue
		}
		h, ivs := named[n.Field], n.Set.Intervals()
		for _, iv := range ivs {
			h = h.word(iv.Lo).word(iv.Hi)
		}
		t, e := sigs[n.True.ID], sigs[n.False.ID]
		s := h.word(uint64(len(ivs))).word(t[0]).word(t[1]).word(e[0]).word(e[1]).sum()
		sigs[n.ID] = [2]uint64{s.a, s.b}
		if index[n.ID] >= 0 {
			p.Signatures = append(p.Signatures, StateSig{sigs[n.ID], index[n.ID]})
		}
	}
	slices.SortFunc(p.Signatures, StateSig.compare)
}

// NumStates returns the number of distinct pipeline states.
func (p *Program) NumStates() int { return p.Stats.States }

// Evaluate runs a packet's field values (indexed like Program.Fields)
// through the compiled tables and returns the resulting action set: that
// of the row that decides it, or else the leaf's default. This is the
// software reference for the hardware pipeline; internal/pipeline
// implements the same semantics with resource modeling.
func (p *Program) Evaluate(values []uint64) ActionSet {
	state := p.InitialState
	for i, t := range p.Tables {
		if e, ok := t.Lookup(state, values[i]); ok {
			if a, ok := Decides(e.Next); ok {
				return p.Actions[a]
			}
			state = e.Next
		}
	}
	return p.leafDefault()
}

// LeafDefault is what the leaf does to a packet no row decided: the index
// in Actions of its default, or, when ok is false, drop.
func (p *Program) LeafDefault() (action int, ok bool) {
	for _, e := range p.Leaf.Entries {
		if e.Kind == EntryWild {
			return Decides(e.Next)
		}
	}
	return 0, false
}

func (p *Program) leafDefault() ActionSet {
	if a, ok := p.LeafDefault(); ok {
		return p.Actions[a]
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

// Dump renders the tables in the style of Figure 4, a row that decides
// with its action set, each table ending in what a miss does (for
// debugging and the quickstart example).
func (p *Program) Dump() string {
	var b strings.Builder
	for i, t := range p.Tables {
		fmt.Fprintf(&b, "%s table (%s):\n", p.Fields[i].Name, t.Match)
		for _, e := range t.Entries {
			if a, ok := Decides(e.Next); ok {
				fmt.Fprintf(&b, "  %s -> %s\n", e.match(), p.Actions[a])
			} else {
				fmt.Fprintf(&b, "  %s\n", e)
			}
		}
		b.WriteString("  miss -> state unchanged\n")
	}
	b.WriteString("leaf table (state updates):\n")
	for _, e := range p.Leaf.Entries {
		if a, _ := Decides(e.Next); e.Kind == EntryWild {
			fmt.Fprintf(&b, "  default -> %s\n", p.Actions[a])
		} else {
			fmt.Fprintf(&b, "  (action=%d) -> %s\n", a, p.Actions[a])
		}
	}
	if _, ok := p.LeafDefault(); !ok {
		b.WriteString("  miss -> drop()\n")
	}
	return b.String()
}
