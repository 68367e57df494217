package compiler

import (
	"context"
	"slices"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// Exact is the oracle of TestReducedEqualsExact: the diagram the builder
// makes of a rule set under bdd.PayloadSets, every terminal the exact set of
// payloads that match, with the actions those payloads stand for.
type Exact struct {
	Fields  []FieldInfo
	Conjs   []bdd.Conj
	actions [][]lang.Action
	sets    *bdd.PayloadSets
	diagram *bdd.BDD
}

// ExactOf resolves rules as Compile does and builds their payload-exact
// diagram.
func ExactOf(sp *spec.Spec, rules []lang.Rule) (*Exact, error) {
	p, err := Observe(context.Background(), sp, Source{Rules: rules}, Options{Workers: 1}, nil)
	if err != nil {
		return nil, err
	}
	return exactOf(p.res.fields, p.conjs, p.res.actions)
}

// ExactOfConjs is ExactOf for the input of CompileConjs.
func ExactOfConjs(sp *spec.Spec, conjs []bdd.Conj, actions [][]lang.Action) (*Exact, error) {
	return exactOf(newResolver(sp).fields, conjs, actions)
}

func exactOf(fields []FieldInfo, conjs []bdd.Conj, actions [][]lang.Action) (*Exact, error) {
	sets := bdd.NewPayloadSets()
	b, err := bdd.NewClassBuilder(sets).Build(BDDFields(fields), conjs)
	return &Exact{Fields: fields, Conjs: conjs, actions: actions, sets: sets, diagram: b}, err
}

// Eval returns the payloads a packet matches and the Key of their merged
// actions.
func (e *Exact) Eval(values []uint64) (key string, payloads []int) {
	payloads = e.sets.SetOf(e.diagram.Lookup(values).Class)
	return mergeActions(e.actions, payloads).Key(), payloads
}

// mergeActions is what a classArena makes of a payload set new to it.
func mergeActions(ruleActions [][]lang.Action, payloads []int) ActionSet {
	ca := newClassArena()
	conjs := make([]bdd.Conj, len(payloads))
	for i, p := range payloads {
		conjs[i].Payload = p
	}
	ca.bind(ruleActions, conjs)
	for _, p := range payloads {
		ca.Add(p)
	}
	id, _ := ca.Class()
	return ca.sets[id]
}

// newPortSet is the set of the given ports, in any order, repeats allowed.
func newPortSet(ports ...int) PortSet {
	list := make([]uint32, len(ports))
	for i, p := range ports {
		list[i] = uint32(p)
	}
	slices.Sort(list)
	return portSetOf(slices.Compact(list))
}

// Nodes is the size of the payload-exact diagram.
func (e *Exact) Nodes() int { return e.diagram.NumNodes() }

// ChunkRules is the front end's chunk size, for tests that cut at its seams.
const ChunkRules = chunkRules

// Conjs is what the pass retains of its rules.
func (p *Pass) Conjs() []bdd.Conj { return p.conjs }

// StateOf maps a node of the pass's diagram to the state the compile gave
// it, ActionOf a terminal to its action set's index in Actions.
func (p *Pass) StateOf(nodeID int) (int, bool)  { return p.indexOf(nodeID, false) }
func (p *Pass) ActionOf(nodeID int) (int, bool) { return p.indexOf(nodeID, true) }

func (p *Pass) indexOf(nodeID int, terminal bool) (int, bool) {
	if nodeID < 0 || nodeID >= len(p.index) || p.index[nodeID] < 0 || p.diagram.Nodes()[nodeID].IsTerminal() != terminal {
		return 0, false
	}
	return p.index[nodeID], true
}

// LiveConjs is what the session retains of its live rules.
func (s *Session) LiveConjs() []bdd.Conj {
	var out []bdd.Conj
	for _, h := range s.order {
		out = append(out, s.live[h]...)
	}
	return out
}

// StateHash is the hash a state's signature is made in (Program.Signatures):
// NewStateHash, then words and byte strings mixed in, then Sum.
type StateHash struct{ h contentHash }

func NewStateHash() StateHash                { return StateHash{hashIn(stateDomain)} }
func (s StateHash) Word(x uint64) StateHash  { return StateHash{s.h.word(x)} }
func (s StateHash) Bytes(b []byte) StateHash { return StateHash{s.h.bytes(b)} }
func (s StateHash) Sum() [2]uint64 {
	x := s.h.sum()
	return [2]uint64{x.a, x.b}
}
