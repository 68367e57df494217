package compiler

import (
	"context"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// Exact is the oracle of TestReducedEqualsExact: the diagram the builder
// makes of a rule set without a classifier, every terminal the exact set of
// payloads that match, with the actions those payloads stand for.
type Exact struct {
	Fields  []FieldInfo
	Conjs   []bdd.Conj
	actions [][]lang.Action
	diagram *bdd.BDD
}

// ExactOf resolves rules as Compile does and builds their payload-exact
// diagram.
func ExactOf(sp *spec.Spec, rules []lang.Rule) (*Exact, error) {
	res, conjs, _, err := resolveSource(context.Background(), sp, source{rules: rules}, Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return exactOf(res.fields, conjs, res.actions)
}

// ExactOfConjs is ExactOf for the input of CompileConjs.
func ExactOfConjs(sp *spec.Spec, conjs []bdd.Conj, actions [][]lang.Action) (*Exact, error) {
	return exactOf(newResolver(sp).fields, conjs, actions)
}

func exactOf(fields []FieldInfo, conjs []bdd.Conj, actions [][]lang.Action) (*Exact, error) {
	bddFields := make([]bdd.Field, len(fields))
	for i, f := range fields {
		bddFields[i] = bdd.Field{Name: f.Name, Max: f.Max}
	}
	b, err := bdd.Build(bddFields, conjs)
	return &Exact{Fields: fields, Conjs: conjs, actions: actions, diagram: b}, err
}

// Eval returns the payloads a packet matches and the Key of their merged
// actions.
func (e *Exact) Eval(values []uint64) (key string, payloads []int) {
	payloads = e.diagram.Lookup(values).Payloads
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

// Nodes is the size of the payload-exact diagram.
func (e *Exact) Nodes() int { return e.diagram.NumNodes() }

// ChunkRules is the front end's chunk size, for tests that cut at its seams.
const ChunkRules = chunkRules

// Conjs is what the program retains of its rules.
func (p *Program) Conjs() []bdd.Conj { return p.conjs }

// LiveConjs is what the session retains of its live rules.
func (s *Session) LiveConjs() []bdd.Conj {
	var out []bdd.Conj
	for _, h := range s.order {
		out = append(out, s.live[h]...)
	}
	return out
}
