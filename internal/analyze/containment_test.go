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

// The containment oracle: condImplies and condOverlaps (merge walks over
// the rules' conjunctions, bdd.Implies for a union they cannot settle) must
// agree with brute-force evaluation of the rule conditions over the full
// (tiny) domain.

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

// qcPlain reports whether a condition compares only fields a and b with
// numeric constants: what qcEval can evaluate.
func qcPlain(e lang.Expr) bool {
	switch v := e.(type) {
	case lang.And:
		return qcPlain(v.L) && qcPlain(v.R)
	case lang.Or:
		return qcPlain(v.L) && qcPlain(v.R)
	case lang.Not:
		return qcPlain(v.X)
	case lang.True:
		return true
	case lang.Cmp:
		return (v.LHS == lang.Operand{Field: "a"} || v.LHS == lang.Operand{Field: "b"}) && v.RHS.Kind == lang.ValNumber
	default:
		return false
	}
}

// FuzzContainmentMatchesBruteForce: for two conditions over two 4-bit
// fields, rule j implies rule i, and the two overlap, exactly when brute
// force over all 256 packets says so. The corpus is the random generator's
// pairs plus one seed per way condImplies decides.
func FuzzContainmentMatchesBruteForce(f *testing.F) {
	sp := &spec.Spec{}
	sp.AddQueryField("a", qcBits, spec.MatchRange)
	sp.AddQueryField("b", qcBits, spec.MatchRange)

	// A conjunction of j that meets none of i's: not implied.
	f.Add("a < 4 && b < 4 || a > 12 && b > 12", "a < 8 || b < 8")
	// Every conjunction of j within one of i's: implied.
	f.Add("a < 4 || b < 2", "a < 8 || b < 8")
	// Neither settles it, so bdd.Implies does: not implied, then implied.
	f.Add("a < 12 && b < 12", "a < 8 || b < 8")
	f.Add("b < 4", "a < 8 || a > 7 && b < 8")
	rng := rand.New(rand.NewSource(42))
	for range 200 {
		f.Add(qcRandomCond(rng), qcRandomCond(rng))
	}
	f.Fuzz(func(t *testing.T, jc, ic string) {
		if len(jc) > 120 || len(ic) > 120 || strings.ContainsAny(jc+ic, ":;\n") {
			return // one bounded condition each, not more rules
		}
		rules, err := lang.ParseRules(jc + " : fwd(1)\n" + ic + " : fwd(1)\n")
		if err != nil || len(rules) != 2 || !qcPlain(rules[0].Cond) || !qcPlain(rules[1].Cond) {
			return
		}
		a := newAnalysis(sp, Options{})
		pass, err := compiler.Observe(context.Background(), sp, compiler.Source{Rules: rules}, compiler.Options{}, a.checkRule)
		if err != nil || len(a.infos) != 2 {
			return
		}
		a.fields = compiler.BDDFields(pass.Fields())
		j, i := a.infos[0], a.infos[1]
		if j.unsat || i.unsat {
			return // pairwise checks only run on satisfiable rules
		}
		wantImplies, wantOverlaps := qcForAll(rules[0].Cond, rules[1].Cond)
		if got := a.condImplies(j, i); got != wantImplies {
			t.Errorf("condImplies = %v, brute force = %v for:\n  j: %s\n  i: %s", got, wantImplies, jc, ic)
		}
		if got := a.condOverlaps(j, i); got != wantOverlaps {
			t.Errorf("condOverlaps = %v, brute force = %v for:\n  j: %s\n  i: %s", got, wantOverlaps, jc, ic)
		}
	})
}

// TestShadowEndToEnd pins the full CAM002 path against a union outer rule:
// a rule in one arm is shadowed, one that adds a port is not, and one that
// meets both arms without lying in the union is rejected by bdd.Implies.
// A class of identical rules is CAM003 alone.
func TestShadowEndToEnd(t *testing.T) {
	sp := &spec.Spec{}
	sp.AddQueryField("a", qcBits, spec.MatchRange)
	sp.AddQueryField("b", qcBits, spec.MatchRange)

	// Rule 0 covers the L-shape (a<8) ∪ (b<8). Rule 1's corner
	// a<4 && b<4 lies in one arm with identical actions => CAM002.
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
	// arm) meets both arms and lies in neither: bdd.Implies must reject
	// containment.
	src = "a < 8 || b < 8 : fwd(1)\na < 12 && b < 12 : fwd(1)\n"
	rep = Source(sp, src, Options{SkipResources: true})
	if n := len(rep.ByCode(CodeShadowed)); n != 0 {
		t.Fatalf("non-contained rule reported shadowed:\n%s", rep.Text(""))
	}

	// Three identical rules: each extra copy is one duplicate of the first
	// and shadowed by no copy.
	src = "a == 3 : fwd(1)\na == 3 : fwd(1)\na == 3 : fwd(1)\n"
	rep = Source(sp, src, Options{SkipResources: true})
	dups := rep.ByCode(CodeDuplicate)
	if len(dups) != 2 || dups[0].Rule != 1 || dups[1].Rule != 2 || len(rep.ByCode(CodeShadowed)) != 0 {
		t.Fatalf("three copies: want CAM003 on rules 1 and 2 and no CAM002:\n%s", rep.Text(""))
	}
}
