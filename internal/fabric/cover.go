// Package fabric scales Camus from one switch to a two-tier topology:
// leaf switches carry the full subscriber rule sets of the hosts behind
// them, spine switches carry *covering* rule sets — coarser programs,
// computed by existentially quantifying the leaf predicates down to a few
// keep fields, that forward a message toward a leaf iff some subscriber
// behind that leaf could match it. The fabric controller partitions rules
// across leaves, compiles per-switch programs incrementally on churn, and
// rolls new epochs out with a fabric-wide two-phase commit: any member
// failing admission or install aborts the epoch and every member is
// rolled back, so the fabric never runs a mix of epochs.
package fabric

import (
	"fmt"
	"sort"
	"strings"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/interval"
	"camus/internal/lang"
	"camus/internal/spec"
)

// CoverOptions tune covering-rule computation.
type CoverOptions struct {
	// KeepFields are the (qualified or short) packet-field names the cover
	// retains; constraints on every other field are existentially
	// quantified away (dropped), which only widens the match — the
	// soundness direction a cover needs. Empty selects every exact-match
	// packet field in the spec (for ITCH: the stock symbol).
	KeepFields []string
	// Compiler options for rule resolution and cover compilation.
	Compiler compiler.Options
}

// Cover is one leaf's covering predicate: a disjunction of projected
// conjunctions (payloads unset; the spine compiler assigns them). A nil
// Conjs slice means the leaf has no subscribers — nothing needs to reach
// it. A single unconstrained conjunction means the cover collapsed to
// match-all (some leaf rule constrains no keep field).
type Cover struct {
	Conjs []bdd.Conj
}

// MatchesAll reports whether the cover forwards every message.
func (c Cover) MatchesAll() bool {
	return len(c.Conjs) == 1 && len(c.Conjs[0].Constraints) == 0
}

// ComputeCover projects a leaf's subscriber rules onto the keep fields.
// Every conjunction of the resolved rule set is narrowed to its keep-field
// constraints — dropping a conjunct is ∃-quantification over the dropped
// field, so the result can only over-approximate the leaf's match set.
// Conjunctions that constrain a single shared field are merged by interval
// union, which is where the compression comes from: a leaf with a thousand
// price-qualified subscriptions over thirty symbols covers as one
// thirty-symbol disjunction.
func ComputeCover(sp *spec.Spec, rules []lang.Rule, opts CoverOptions) (Cover, error) {
	if len(rules) == 0 {
		return Cover{}, nil
	}
	fields, conjs, err := compiler.ResolveConjs(sp, rules, opts.Compiler)
	if err != nil {
		return Cover{}, err
	}
	keep, err := keepSet(sp, fields, opts.KeepFields)
	if err != nil {
		return Cover{}, err
	}

	// Project each conjunction; a conjunction with no keep-field
	// constraint collapses the whole cover to match-all.
	single := make(map[int]interval.Set) // field -> union of single-field conjs
	var multi []bdd.Conj
	seen := make(map[string]bool)
	for _, cj := range conjs {
		var proj []bdd.Constraint
		for _, con := range cj.Constraints {
			if keep[con.Field] {
				proj = append(proj, con)
			}
		}
		if len(proj) == 0 {
			return Cover{Conjs: []bdd.Conj{{}}}, nil
		}
		if f := proj[0].Field; allOnField(proj, f) {
			set := proj[0].Set
			for _, con := range proj[1:] {
				set = set.Intersect(con.Set)
			}
			if set.IsEmpty() {
				continue // unsatisfiable on the keep field alone
			}
			if prev, ok := single[f]; ok {
				single[f] = prev.Union(set)
			} else {
				single[f] = set
			}
			continue
		}
		if key := projKey(proj); !seen[key] {
			seen[key] = true
			multi = append(multi, bdd.Conj{Constraints: proj})
		}
	}

	var out []bdd.Conj
	fidx := make([]int, 0, len(single))
	for f := range single {
		fidx = append(fidx, f)
	}
	sort.Ints(fidx)
	for _, f := range fidx {
		out = append(out, bdd.Conj{Constraints: []bdd.Constraint{{
			Field: f, Set: single[f], Label: bdd.Text("cover(" + fields[f].Name + ")"),
		}}})
	}
	out = append(out, multi...)
	return Cover{Conjs: out}, nil
}

func allOnField(cons []bdd.Constraint, f int) bool {
	for _, c := range cons {
		if c.Field != f {
			return false
		}
	}
	return true
}

// projKey canonicalizes a projected constraint list for deduplication.
func projKey(cons []bdd.Constraint) string {
	parts := make([]string, len(cons))
	for i, c := range cons {
		parts[i] = fmt.Sprintf("%d:%s", c.Field, c.Set.Key())
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// keepSet resolves keep-field names to resolved-field indices. With no
// names given, every exact-match packet field is kept.
func keepSet(sp *spec.Spec, fields []compiler.FieldInfo, names []string) (map[int]bool, error) {
	keep := make(map[int]bool)
	if len(names) == 0 {
		for i, f := range fields {
			if !f.IsState && f.Match == spec.MatchExact {
				keep[i] = true
			}
		}
		if len(keep) == 0 {
			return nil, fmt.Errorf("fabric: spec has no exact-match field to cover on; set CoverOptions.KeepFields")
		}
		return keep, nil
	}
	for _, name := range names {
		q, err := sp.LookupField(name)
		if err != nil {
			return nil, fmt.Errorf("fabric: keep field: %w", err)
		}
		found := false
		for i, f := range fields {
			if f.Name == q.Name {
				keep[i] = true
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fabric: keep field %q not in resolved pipeline", name)
		}
	}
	return keep, nil
}

// SpineProgram compiles one spine program from per-leaf covers: the spine
// forwards a message out port ports[j] iff covers[j] matches — every
// message some subscriber behind leaf j could want, and (soundness aside)
// as little else as the covers allow. Leaves with empty covers get no
// entries: nothing is forwarded toward a subscriber-less leaf.
func SpineProgram(sp *spec.Spec, covers []Cover, ports []int, opts compiler.Options) (*compiler.Program, error) {
	p, err := SpinePass(sp, covers, ports, opts)
	if err != nil {
		return nil, err
	}
	return p.Compile()
}

// SpinePass is the compiler pass SpineProgram compiles, for a caller that
// reads the diagram too.
func SpinePass(sp *spec.Spec, covers []Cover, ports []int, opts compiler.Options) (*compiler.Pass, error) {
	if len(covers) != len(ports) {
		return nil, fmt.Errorf("fabric: %d covers for %d ports", len(covers), len(ports))
	}
	actions := make([][]lang.Action, len(covers))
	var conjs []bdd.Conj
	for j, cover := range covers {
		actions[j] = []lang.Action{lang.Fwd(ports[j])}
		for _, cj := range cover.Conjs {
			cj.Payload = j
			conjs = append(conjs, cj)
		}
	}
	return compiler.ConjsPass(sp, conjs, actions, opts)
}

// VerifyCover proves containment on two compiled passes: every packet the
// leaf does something with (forwards, or updates state on — bdd.Node.Matches)
// the cover forwards too, so no leaf predicate escapes its cover; a region
// the leaf only drops need not be covered. On failure the witness is a
// packet (field values in pipeline order) the leaf wants but the spine drops.
func VerifyCover(leaf, cover *compiler.Pass) (ok bool, witness []uint64, err error) {
	return bdd.Implies(leaf.Diagram(), cover.Diagram())
}
