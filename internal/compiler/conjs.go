package compiler

import (
	"context"
	"fmt"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// ResolveConjs lowers subscription rules to the BDD conjunctions Compile
// would fold, paired with the resolved pipeline field table. Payloads
// index positions in the rule slice (plus synthetic companion IDs for
// aggregate rules). The fabric's covering-rule computation consumes this:
// it projects each conjunction onto a subset of the fields — a sound
// existential quantification — before rebuilding a coarser program with
// CompileConjs.
func ResolveConjs(sp *spec.Spec, rules []lang.Rule, opts Options) ([]FieldInfo, []bdd.Conj, error) {
	res, conjs, _, err := resolveSource(context.Background(), sp, source{rules: rules}, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.fields, conjs, nil
}

// CompileConjs compiles raw BDD conjunctions — each payload indexing the
// actions table — into a full Program over the spec's pipeline fields.
// This is the back door the fabric uses to install covering rule sets on
// spine switches: the conjunctions come from ResolveConjs projections, so
// they are not expressible as rule source text, but they lower through the
// same BDD/Algorithm-1 path as any compiled rule set.
//
// The field list is the spec's packet fields only (as seeded by a fresh
// resolve); conjunctions referencing synthetic state fields cannot be
// compiled through this entry.
func CompileConjs(sp *spec.Spec, conjs []bdd.Conj, actions [][]lang.Action, opts Options) (*Program, error) {
	res := newResolver(sp)
	for _, cj := range conjs {
		if cj.Payload < 0 || cj.Payload >= len(actions) {
			return nil, fmt.Errorf("compiler: conjunction payload %d outside actions table (len %d)", cj.Payload, len(actions))
		}
		for _, con := range cj.Constraints {
			if con.Field < 0 || con.Field >= len(res.fields) {
				return nil, fmt.Errorf("compiler: conjunction constrains field %d, spec has %d packet fields", con.Field, len(res.fields))
			}
		}
	}
	return compileFromConjs(sp, res.fields, actions, conjs, len(actions), opts, newClassArena())
}
