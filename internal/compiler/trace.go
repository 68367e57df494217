package compiler

import (
	"fmt"
	"slices"
	"strings"

	"camus/internal/spec"
)

// TraceStep records one pipeline stage's lookup during a trace.
type TraceStep struct {
	Field     string
	Value     uint64
	FromState int
	Entry     *Entry // nil on a table miss
	ToState   int
}

func (s TraceStep) String() string {
	if s.Entry == nil {
		return fmt.Sprintf("%-24s value=%-12d state %d: miss (state unchanged)", s.Field, s.Value, s.FromState)
	}
	return fmt.Sprintf("%-24s value=%-12d state %d: %s", s.Field, s.Value, s.FromState, s.Entry)
}

// Trace is a packet's full walk through the compiled tables, beside the
// rules it matched — the "why did this packet go there" debugging view.
type Trace struct {
	Steps      []TraceStep
	FinalState int
	Action     ActionSet
	// MatchedRules lists, ascending, the rule IDs whose conditions the
	// packet satisfies.
	MatchedRules []int
}

func (tr Trace) String() string {
	var b strings.Builder
	for _, s := range tr.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	fmt.Fprintf(&b, "  leaf: state %d -> %s\n", tr.FinalState, tr.Action)
	fmt.Fprintf(&b, "  matched rules: %v\n", tr.MatchedRules)
	return b.String()
}

// Trace runs a packet through the tables recording every lookup, and finds
// the matched rule set by evaluating every rule's resolved conjunctions on
// the same values: O(rules), off the packet path, and independent of the
// BDD and the tables it explains. It is the diagnostic twin of Evaluate
// (same semantics, more output).
func (p *Program) Trace(values []uint64) Trace {
	tr := Trace{}
	state := p.InitialState
	for i, t := range p.Tables {
		step := TraceStep{Field: p.Fields[i].Name, Value: values[i], FromState: state}
		if e, ok := t.Lookup(state, values[i]); ok {
			eCopy := e
			step.Entry = &eCopy
			state = e.Next
		}
		step.ToState = state
		tr.Steps = append(tr.Steps, step)
	}
	tr.FinalState = state
	if e, ok := p.Leaf.Lookup(state, 0); ok {
		tr.Action = p.Actions[e.Next]
	} else {
		tr.Action = ActionSet{Drop: true, Group: -1}
	}
conjs:
	for _, c := range p.conjs {
		for _, con := range c.Constraints {
			if !con.Set.Contains(values[con.Field]) {
				continue conjs
			}
		}
		tr.MatchedRules = append(tr.MatchedRules, c.Payload)
	}
	slices.Sort(tr.MatchedRules)
	tr.MatchedRules = slices.Compact(tr.MatchedRules)
	return tr
}

// ParseValueAssignment parses "field=value,field=SYMBOL,..." into a
// program field-value vector (the camusc -explain input format). Symbolic
// values are encoded per the spec; unmentioned fields stay zero.
func (p *Program) ParseValueAssignment(s string) ([]uint64, error) {
	values := make([]uint64, len(p.Fields))
	if strings.TrimSpace(s) == "" {
		return values, nil
	}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("assignment %q: want field=value", part)
		}
		idx, err := p.FieldIndex(kv[0])
		if err != nil {
			return nil, err
		}
		var v uint64
		if _, err := fmt.Sscanf(kv[1], "%d", &v); err != nil {
			if p.Fields[idx].IsState {
				return nil, fmt.Errorf("assignment %q: state fields take numbers", part)
			}
			q, qerr := p.Spec.LookupField(p.Fields[idx].Name)
			if qerr != nil {
				return nil, qerr
			}
			v, err = spec.EncodeSymbol(q, kv[1])
			if err != nil {
				return nil, fmt.Errorf("assignment %q: %w", part, err)
			}
		}
		values[idx] = v
	}
	return values, nil
}
