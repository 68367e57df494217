package compiler_test

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// walkSignatures is the oracle of the signatures a compile stores: a walk
// down the pass's diagram from its root, each In node's signature its field
// name and intervals mixed with its children's, a terminal its action set's
// Sum. Ascending by signature, then state.
func walkSignatures(pass *compiler.Pass) []compiler.StateSig {
	prog := pass.Program()
	memo := make(map[*bdd.Node][2]uint64)
	var out []compiler.StateSig
	var walk func(n *bdd.Node) [2]uint64
	walk = func(n *bdd.Node) [2]uint64 {
		if s, ok := memo[n]; ok {
			return s
		}
		var s [2]uint64
		if a, ok := pass.ActionOf(n.ID); ok {
			s = prog.Actions[a].Sum()
		} else {
			h := compiler.NewStateHash().Bytes([]byte(prog.Fields[n.Field].Name))
			ivs := n.Set.Intervals()
			for _, iv := range ivs {
				h = h.Word(iv.Lo).Word(iv.Hi)
			}
			t, e := walk(n.True), walk(n.False)
			s = h.Word(uint64(len(ivs))).Word(t[0]).Word(t[1]).Word(e[0]).Word(e[1]).Sum()
			if st, ok := pass.StateOf(n.ID); ok {
				out = append(out, compiler.StateSig{Sig: s, State: st})
			}
		}
		memo[n] = s
		return s
	}
	walk(pass.Diagram().Root)
	slices.SortFunc(out, func(x, y compiler.StateSig) int {
		if c := slices.Compare(x.Sig[:], y.Sig[:]); c != 0 {
			return c
		}
		return cmp.Compare(x.State, y.State)
	})
	return out
}

// checkSignatures holds a compiled pass's stored signatures to the walk.
func checkSignatures(t testing.TB, what string, pass *compiler.Pass) {
	t.Helper()
	prog := pass.Program()
	if want := walkSignatures(pass); !slices.Equal(prog.Signatures, want) {
		t.Fatalf("%s: stored signatures\n%v\nthe diagram walk\n%v", what, prog.Signatures, want)
	}
}

// FuzzSignaturesMatchDiagramWalk: the state signatures lowering stores while
// it still has the diagram are the walk over that diagram the control plane
// used to make on every install — on every
// TestCompileGolden fixture, and on small rule sets read four bytes a rule
// from the input: a Fig. 5c row, a requirement of two intervals, or a line
// of the golden multi-term, keyed-state and colliding-action fixtures.
func FuzzSignaturesMatchDiagramWalk(f *testing.F) {
	for _, c := range goldenCases(f) {
		pass, err := c.compile(compiler.Options{})
		if err != nil {
			f.Fatalf("%s: %v", c.name, err)
		}
		checkSignatures(f, c.name, pass)
	}

	sp, err := spec.Parse(goldenStatefulSpec)
	if err != nil {
		f.Fatal(err)
	}
	if err := sp.SetFieldOrder("stock", "price", "shares"); err != nil {
		f.Fatal(err)
	}
	var lines []string
	for _, fixture := range []string{goldenMultiTerm, goldenStateful, reducedActions} {
		var seed []byte
		for _, l := range strings.Split(strings.TrimSpace(fixture), "\n") {
			seed = append(seed, 2, byte(len(lines)), 0, 0)
			lines = append(lines, l)
		}
		f.Add(seed)
	}
	f.Add([]byte{0, 1, 30, 0, 0, 1, 60, 1, 1, 0, 5, 20, 2, 2, 0, 0, 2, 12, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var src strings.Builder
		for i := 0; i+4 <= len(data) && i < 4*12; i += 4 {
			a, b, c := int(data[i+1]), int(data[i+2]), int(data[i+3])
			switch data[i] % 3 {
			case 0:
				fmt.Fprintf(&src, "stock == S%d && price > %d : fwd(%d)\n", a%4, 10*(b%100), 1+c%3)
			case 1:
				field, lo := [2]string{"price", "shares"}[a&1], 10*(b%50)
				fmt.Fprintf(&src, "%s < %d || %s > %d : fwd(%d)\n", field, lo, field, lo+10*(1+c%50), 1+(a>>1)%3)
			default:
				src.WriteString(lines[a%len(lines)] + "\n")
			}
		}
		rules, err := lang.ParseRules(src.String())
		if err != nil {
			t.Fatalf("%v\n%s", err, src.String())
		}
		pass, err := rulesCase("fuzz", sp, rules).compile(compiler.Options{})
		if err != nil {
			t.Fatalf("%v\n%s", err, src.String())
		}
		checkSignatures(t, src.String(), pass)
	})
}
