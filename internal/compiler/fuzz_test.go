package compiler_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
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

// FuzzSessionSyncMatchesCold: two Sessions, one that Sync drives through a
// sequence of parsed rule sets and one that it drives through their text,
// lower after every recompile what a cold compile of the set would — the
// same Dump and golden digest. Every TestCompileGolden rule fixture goes
// through it first: whole, then its last two thirds, its first two thirds,
// reversed, and whole again. The input is then read four bytes a record: a
// Fig. 5c row, a requirement of two intervals, a line of the golden
// multi-term, keyed-state and colliding-action fixtures, each from a small
// pool so that sets overlap, a blank or comment line, a line of the set
// before again — repeats and reorders — or the end of a set.
func FuzzSessionSyncMatchesCold(f *testing.F) {
	for _, c := range goldenCases(f) {
		if n := len(c.rules); n > 0 {
			reversed := slices.Clone(c.rules)
			slices.Reverse(reversed)
			syncMatchesCold(f, c.name, c.sp, ruleText(c.rules), ruleText(c.rules[n/3:]), ruleText(c.rules[:2*n/3]), ruleText(reversed), ruleText(c.rules))
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
	// A set, then one of a fixture line, a blank, the first set's lines
	// reordered and repeated, and the fixture line again.
	f.Add([]byte{0, 1, 3, 0, 2, 4, 0, 0, 4, 1, 0, 0, 3, 0, 0, 0, 5, 1, 0, 0, 5, 0, 0, 0, 2, 4, 0, 0, 5, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		var sets, prev, set []string
		end := func() {
			sets = append(sets, strings.Join(set, ""))
			prev, set = set, nil
		}
		for i := 0; i+4 <= len(data) && i < 4*64; i += 4 {
			a, b, c := int(data[i+1]), int(data[i+2]), int(data[i+3])
			switch data[i] % 8 {
			case 0:
				set = append(set, fmt.Sprintf("stock == S%d && price > %d : fwd(%d)\n", a%4, 10*(b%8), 1+c%3))
			case 1:
				field, lo := [2]string{"price", "shares"}[a&1], 10*(b%8)
				set = append(set, fmt.Sprintf("%s < %d || %s > %d : fwd(%d)\n", field, lo, field, lo+10*(1+c%4), 1+(a>>1)%3))
			case 2:
				set = append(set, lines[a%len(lines)]+"\n")
			case 4:
				set = append(set, [3]string{"\n", "# a comment\n", "  // another\r\n"}[a%3])
			case 5:
				if len(prev) > 0 {
					set = append(set, prev[a%len(prev)])
				}
			default:
				end()
			}
		}
		end()
		syncMatchesCold(t, "fuzz", sp, sets...)
	})
}

// ruleText is rules as source text, a rule to a line.
func ruleText(rules []lang.Rule) string {
	var b strings.Builder
	for _, r := range rules {
		b.WriteString(r.String() + "\n")
	}
	return b.String()
}

// syncMatchesCold syncs two new sessions to each set in turn, one by its
// rules and one by its text, and holds every recompile to a cold compile of
// the set as given.
func syncMatchesCold(t testing.TB, what string, sp *spec.Spec, sets ...string) {
	t.Helper()
	byRules, byText := compiler.NewSession(sp, compiler.Options{}), compiler.NewSession(sp, compiler.Options{})
	for i, set := range sets {
		rules, err := lang.ParseRules(set)
		if err != nil {
			t.Fatalf("%s: set %d: %v\n%s", what, i, err, set)
		}
		if err := byRules.Sync(context.Background(), compiler.Source{Rules: rules}); err != nil {
			t.Fatalf("%s: set %d: %v", what, i, err)
		}
		if err := byText.Sync(context.Background(), compiler.Source{Text: set}); err != nil {
			t.Fatalf("%s: set %d: %v", what, i, err)
		}
		cold, err := compiled(compiler.Observe(context.Background(), sp, compiler.Source{Text: set}, compiler.Options{}, nil))
		if err != nil {
			t.Fatalf("%s: set %d: cold: %v", what, i, err)
		}
		for _, route := range []struct {
			name string
			sess *compiler.Session
		}{{"rules", byRules}, {"text", byText}} {
			got, err := route.sess.RecompilePass()
			if err != nil {
				t.Fatalf("%s: set %d: %s: %v", what, i, route.name, err)
			}
			if g, w := got.Program().Dump(), cold.Program().Dump(); g != w {
				t.Fatalf("%s: set %d: %s: dumps differ\n--- session ---\n%s--- cold ---\n%s", what, i, route.name, g, w)
			}
			if g, w := programDigest(got), programDigest(cold); g != w {
				t.Fatalf("%s: set %d: %s: session digest %s, cold %s", what, i, route.name, g, w)
			}
		}
	}
}
