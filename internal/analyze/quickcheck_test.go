package analyze

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// The quick-check oracle: condImplies and condOverlaps (interval
// pre-filter + BDD containment) must agree with brute-force evaluation
// of the rule conditions over the full (tiny) domain.

const qcBits = 4 // two 4-bit fields -> 256 assignments, cheap to enumerate

// qcEval evaluates a condition under an assignment of field values.
func qcEval(e lang.Expr, env map[string]uint64) bool {
	switch v := e.(type) {
	case lang.And:
		return qcEval(v.L, env) && qcEval(v.R, env)
	case lang.Or:
		return qcEval(v.L, env) || qcEval(v.R, env)
	case lang.Not:
		return !qcEval(v.X, env)
	case lang.True:
		return true
	case lang.Cmp:
		x := env[v.LHS.Field]
		c := v.RHS.Num
		switch v.Op {
		case lang.OpEq:
			return x == c
		case lang.OpNeq:
			return x != c
		case lang.OpLt:
			return x < c
		case lang.OpGt:
			return x > c
		case lang.OpLe:
			return x <= c
		default:
			return x >= c
		}
	default:
		panic(fmt.Sprintf("unhandled expr %T", e))
	}
}

// qcForAll reports brute-force implication and overlap of two conditions
// over the full domain.
func qcForAll(j, i lang.Expr) (implies, overlaps bool) {
	implies = true
	for a := uint64(0); a < 1<<qcBits; a++ {
		for b := uint64(0); b < 1<<qcBits; b++ {
			env := map[string]uint64{"a": a, "b": b}
			ji := qcEval(j, env)
			ii := qcEval(i, env)
			if ji && !ii {
				implies = false
			}
			if ji && ii {
				overlaps = true
			}
		}
	}
	return implies, overlaps
}

// qcRandomCond renders a random condition source: 1-3 conjunctions of
// 1-3 atoms over fields a and b, with occasional negation. Constants
// range slightly past the field max to exercise the clamping paths.
func qcRandomCond(rng *rand.Rand) string {
	ops := []string{"==", "<", ">"}
	fields := []string{"a", "b"}
	nConj := 1 + rng.Intn(3)
	conjs := make([]string, nConj)
	for c := range conjs {
		nAtoms := 1 + rng.Intn(3)
		atoms := make([]string, nAtoms)
		for i := range atoms {
			atom := fmt.Sprintf("%s %s %d",
				fields[rng.Intn(len(fields))], ops[rng.Intn(len(ops))], rng.Intn(1<<qcBits+2))
			if rng.Intn(4) == 0 {
				atom = "!(" + atom + ")"
			}
			atoms[i] = atom
		}
		conjs[c] = "(" + strings.Join(atoms, " && ") + ")"
	}
	return strings.Join(conjs, " || ")
}

func TestQuickCheckImpliesAndOverlapsMatchBruteForce(t *testing.T) {
	sp := &spec.Spec{}
	sp.AddQueryField("a", qcBits, spec.MatchRange)
	sp.AddQueryField("b", qcBits, spec.MatchRange)

	rng := rand.New(rand.NewSource(42)) // deterministic corpus
	pairs, bddUsed := 0, 0
	for pairs < 400 {
		src := fmt.Sprintf("%s : fwd(1)\n%s : fwd(1)\n", qcRandomCond(rng), qcRandomCond(rng))
		rules, err := lang.ParseRules(src)
		if err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, src)
		}
		a := newAnalysis(sp, Options{})
		pass, err := compiler.Observe(context.Background(), sp, compiler.Source{Rules: rules}, compiler.Options{}, a.checkRule)
		if err != nil {
			t.Fatal(err)
		}
		a.fields = compiler.BDDFields(pass.Fields())
		j, i := a.infos[0], a.infos[1]
		if j.unsat || i.unsat {
			continue // pairwise checks only run on satisfiable rules
		}
		pairs++
		if len(i.conjs) > 1 {
			bddUsed++ // multi-conjunction outer rule: the BDD oracle decides
		}

		gotImplies := a.condImplies(j, i)
		gotOverlaps := a.condOverlaps(j, i)
		wantImplies, wantOverlaps := qcForAll(rules[0].Cond, rules[1].Cond)
		if gotImplies != wantImplies {
			t.Errorf("condImplies = %v, brute force = %v for:\n  j: %s\n  i: %s",
				gotImplies, wantImplies, rules[0].Cond, rules[1].Cond)
		}
		if gotOverlaps != wantOverlaps {
			t.Errorf("condOverlaps = %v, brute force = %v for:\n  j: %s\n  i: %s",
				gotOverlaps, wantOverlaps, rules[1].Cond, rules[0].Cond)
		}
		if t.Failed() && pairs > 20 {
			break // enough counterexamples to debug with
		}
	}
	if bddUsed == 0 {
		t.Error("corpus never exercised the BDD containment path (all outer rules single-conjunction)")
	}
	t.Logf("checked %d pairs, %d through the BDD oracle", pairs, bddUsed)
}

// TestShadowEndToEnd pins the full CAM002 path on a case where the
// interval projection pre-filter alone cannot decide containment: the
// outer rule is a union whose projection box is strictly larger than
// the union itself.
func TestShadowEndToEnd(t *testing.T) {
	sp := &spec.Spec{}
	sp.AddQueryField("a", qcBits, spec.MatchRange)
	sp.AddQueryField("b", qcBits, spec.MatchRange)

	// Rule 0 covers the L-shape (a<8) ∪ (b<8). Its per-field projection
	// is the full plane (each field is unconstrained in one arm), so the
	// interval pre-filter accepts any candidate and only the BDD can
	// decide real containment. Rule 1's corner a<4 && b<4 is inside the
	// L with identical actions => CAM002.
	src := "a < 8 || b < 8 : fwd(1)\na < 4 && b < 4 : fwd(1)\n"
	rep := Source(sp, src, Options{SkipResources: true})
	shadows := rep.ByCode(CodeShadowed)
	if len(shadows) != 1 || shadows[0].Rule != 1 {
		t.Fatalf("CAM002 = %+v, want exactly rule 1 shadowed:\n%s", shadows, rep.Text(""))
	}

	// The corner rule grows a port the L does not forward to: its effect
	// is no longer a subset, so the shadow disappears.
	src = "a < 8 || b < 8 : fwd(1)\na < 4 && b < 4 : fwd(1); fwd(9)\n"
	rep = Source(sp, src, Options{SkipResources: true})
	if n := len(rep.ByCode(CodeShadowed)); n != 0 {
		t.Fatalf("effect-superset rule still reported shadowed:\n%s", rep.Text(""))
	}

	// A square poking out of the L (e.g. a=10, b=10 satisfies neither
	// arm): the BDD must reject containment even though the pre-filter
	// passes.
	src = "a < 8 || b < 8 : fwd(1)\na < 12 && b < 12 : fwd(1)\n"
	rep = Source(sp, src, Options{SkipResources: true})
	if n := len(rep.ByCode(CodeShadowed)); n != 0 {
		t.Fatalf("non-contained rule reported shadowed:\n%s", rep.Text(""))
	}
}
