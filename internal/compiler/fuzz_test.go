package compiler_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
)

// FuzzTablesMatchExact: the tables of a small rule set, under every ablation
// of the lowering, do to every packet of the probe grid what the
// payload-exact diagram's rules say. The input is read four bytes a rule:
// a Fig. 5c row, a requirement of two intervals, or a line of reducedActions
// — its explicit drops, its state-only updates and the rules that read them.
// So whether a terminal does nothing, and which default a state gets, moves
// with the input.
func FuzzTablesMatchExact(f *testing.F) {
	sp, err := spec.Parse(goldenStatefulSpec)
	if err != nil {
		f.Fatal(err)
	}
	if err := sp.SetFieldOrder("stock", "price", "shares"); err != nil {
		f.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(reducedActions), "\n")
	var all []byte
	for i := range lines {
		all = append(all, 2, byte(i), 0, 0)
	}
	f.Add(all)
	f.Add([]byte{0, 1, 30, 0, 0, 1, 60, 1, 1, 0, 5, 20, 2, 2, 0, 0})

	ablations := []compiler.Options{{}, {DisableCompression: true}, {DisableExactLowering: true}, {ForceRangeTables: true}}
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
		exact, err := compiler.ExactOf(sp, rules)
		if err != nil {
			t.Fatal(err)
		}
		probes := probeGrid(exact, 2000, rand.New(rand.NewSource(7)))
		for _, opts := range ablations {
			prog, err := compiler.Compile(sp, rules, opts)
			if err != nil {
				t.Fatalf("%+v: %v\n%s", opts, err, src.String())
			}
			for _, v := range probes {
				if key, payloads := exact.Eval(v); prog.Evaluate(v).Key() != key {
					t.Fatalf("%+v: packet %v: tables do %s, rules %v do otherwise\n%s", opts, v, prog.Evaluate(v), payloads, src.String())
				}
			}
		}
	})
}

// FuzzSessionSyncMatchesCold: a Session that Sync drives through a sequence
// of rule sets lowers, after every recompile, what a cold compile of its
// live rules in its order would — the same Dump and golden digest. Every
// TestCompileGolden rule fixture goes through it first: whole, then its last
// two thirds, its first two thirds and whole again. The input is then read
// four bytes a record: a Fig. 5c row, a requirement of two intervals or a
// line of the golden multi-term, keyed-state and colliding-action fixtures,
// each from a small pool so that sets overlap, or the end of a set.
func FuzzSessionSyncMatchesCold(f *testing.F) {
	for _, c := range goldenCases(f) {
		if n := len(c.rules); n > 0 {
			syncMatchesCold(f, c.name, c.sp, c.rules, c.rules[n/3:], c.rules[:2*n/3], c.rules)
		}
	}

	sp, err := spec.Parse(goldenStatefulSpec)
	if err != nil {
		f.Fatal(err)
	}
	if err := sp.SetFieldOrder("stock", "price", "shares"); err != nil {
		f.Fatal(err)
	}
	var lines []string
	var all []byte
	for _, fixture := range []string{goldenMultiTerm, goldenStateful, reducedActions} {
		var whole, rest []byte
		for i, l := range strings.Split(strings.TrimSpace(fixture), "\n") {
			rec := []byte{2, byte(len(lines)), 0, 0}
			whole = append(whole, rec...)
			if i > 0 {
				rest = append(rest, rec...)
			}
			lines = append(lines, l)
		}
		// The fixture, then all but its first line: a keyed state field
		// the first line alone updated leaves the live set.
		f.Add(append(append(whole, 3, 0, 0, 0), rest...))
		all = append(append(all, whole...), 3, 0, 0, 0)
	}
	f.Add(all)
	f.Add([]byte{0, 1, 3, 0, 1, 0, 5, 2, 3, 0, 0, 0, 0, 1, 3, 0, 2, 12, 0, 0, 3, 0, 0, 0, 2, 12, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var sets [][]lang.Rule
		var src strings.Builder
		end := func() {
			rules, err := lang.ParseRules(src.String())
			if err != nil {
				t.Fatalf("%v\n%s", err, src.String())
			}
			sets = append(sets, rules)
			src.Reset()
		}
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			a, b, c := int(data[i+1]), int(data[i+2]), int(data[i+3])
			switch data[i] % 4 {
			case 0:
				fmt.Fprintf(&src, "stock == S%d && price > %d : fwd(%d)\n", a%4, 10*(b%8), 1+c%3)
			case 1:
				field, lo := [2]string{"price", "shares"}[a&1], 10*(b%8)
				fmt.Fprintf(&src, "%s < %d || %s > %d : fwd(%d)\n", field, lo, field, lo+10*(1+c%4), 1+(a>>1)%3)
			case 2:
				src.WriteString(lines[a%len(lines)] + "\n")
			default:
				end()
			}
		}
		end()
		syncMatchesCold(t, "fuzz", sp, sets...)
	})
}

// syncMatchesCold syncs a new session to each set in turn and holds every
// recompile to a cold compile of the rules the session then holds, in its
// order: those still live where they were, then the set's new ones in the
// set's order, each text once.
func syncMatchesCold(t testing.TB, what string, sp *spec.Spec, sets ...[]lang.Rule) {
	t.Helper()
	sess := compiler.NewSession(sp, compiler.Options{})
	var live []lang.Rule
	for i, set := range sets {
		if err := sess.Sync(set); err != nil {
			t.Fatalf("%s: set %d: %v", what, i, err)
		}
		want := make(map[string]bool, len(set))
		for _, r := range set {
			want[r.String()] = true
		}
		var next []lang.Rule
		for _, r := range append(live, set...) {
			if want[r.String()] {
				next = append(next, r)
				delete(want, r.String())
			}
		}
		live = next
		got, err := sess.RecompilePass()
		if err != nil {
			t.Fatalf("%s: set %d: %v", what, i, err)
		}
		cold, err := rulesCase(what, sp, live).compile(compiler.Options{})
		if err != nil {
			t.Fatalf("%s: set %d: cold: %v", what, i, err)
		}
		if g, w := got.Program().Dump(), cold.Program().Dump(); g != w {
			t.Fatalf("%s: set %d: dumps differ\n--- session ---\n%s--- cold ---\n%s", what, i, g, w)
		}
		if g, w := programDigest(got), programDigest(cold); g != w {
			t.Fatalf("%s: set %d: session digest %s, cold %s", what, i, g, w)
		}
	}
}
