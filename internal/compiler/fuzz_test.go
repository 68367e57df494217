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
