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
	// Action is the action set the step's row decided the packet with, nil
	// when the row only moved it to ToState, or missed.
	Action *ActionSet
}

func (s TraceStep) String() string {
	switch {
	case s.Entry == nil:
		return fmt.Sprintf("%-24s value=%-12d state %d: miss (state unchanged)", s.Field, s.Value, s.FromState)
	case s.Action != nil:
		return fmt.Sprintf("%-24s value=%-12d state %d: %s -> %s", s.Field, s.Value, s.FromState, s.Entry.match(), s.Action)
	}
	return fmt.Sprintf("%-24s value=%-12d state %d: %s", s.Field, s.Value, s.FromState, s.Entry)
}

// Trace is a packet's full walk through the compiled tables, beside the
// rules it matched — the "why did this packet go there" debugging view.
type Trace struct {
	Steps  []TraceStep
	Action ActionSet
	// MatchedRules lists, ascending, the rule IDs whose conditions the
	// packet satisfies.
	MatchedRules []int
}

func (tr Trace) String() string {
	var b strings.Builder
	decided := false
	for _, s := range tr.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
		decided = decided || s.Action != nil
	}
	if !decided {
		fmt.Fprintf(&b, "  no row decided: leaf default -> %s\n", tr.Action)
	}
	fmt.Fprintf(&b, "  matched rules: %v\n", tr.MatchedRules)
	return b.String()
}

// Trace runs a packet through the tables recording every lookup — those
// after the row that decides miss, as they do on the switch — and finds the
// matched rule set by evaluating every rule's resolved conjunctions on the
// same values: O(rules), off the packet path, and independent of the BDD
// and the tables it explains. It is the diagnostic twin of Evaluate (same
// semantics, more output).
func (p *Program) Trace(values []uint64) Trace {
	tr := Trace{Action: p.leafDefault()}
	state := p.InitialState
	for i, t := range p.Tables {
		step := TraceStep{Field: p.Fields[i].Name, Value: values[i], FromState: state}
		if e, ok := t.Lookup(state, values[i]); ok {
			eCopy := e
			step.Entry = &eCopy
			if a, ok := Decides(e.Next); ok {
				tr.Action = p.Actions[a]
				step.Action = &p.Actions[a]
			} else {
				state = e.Next
			}
		}
		step.ToState = state
		tr.Steps = append(tr.Steps, step)
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
