package compiler

import (
	"math/rand"
	"reflect"
	"testing"

	"camus/internal/lang"
)

// requireSamePrograms fails unless the two programs are bit-identical in
// every externally observable way: stats, table entries, leaf actions,
// multicast groups, and forwarding behavior on random probes.
func requireSamePrograms(t *testing.T, want, got *Program, probes [][]uint64) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("stats differ:\n serial:   %+v\n parallel: %+v", want.Stats, got.Stats)
	}
	if want.InitialState != got.InitialState {
		t.Fatalf("initial state %d != %d", got.InitialState, want.InitialState)
	}
	if w, g := want.Dump(), got.Dump(); w != g {
		t.Fatalf("table dumps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", w, g)
	}
	if !reflect.DeepEqual(want.Groups, got.Groups) {
		t.Fatalf("multicast groups differ: %v != %v", got.Groups, want.Groups)
	}
	if len(want.Tables) != len(got.Tables) {
		t.Fatalf("table count %d != %d", len(got.Tables), len(want.Tables))
	}
	for i := range want.Tables {
		if !reflect.DeepEqual(want.Tables[i].Entries, got.Tables[i].Entries) {
			t.Fatalf("table %d entries differ", i)
		}
		wNil, gNil := want.Tables[i].Codec == nil, got.Tables[i].Codec == nil
		if wNil != gNil {
			t.Fatalf("table %d codec presence differs", i)
		}
	}
	for _, vals := range probes {
		w := want.Evaluate(append([]uint64(nil), vals...))
		g := got.Evaluate(append([]uint64(nil), vals...))
		if w.Key() != g.Key() {
			t.Fatalf("evaluate(%v): %q != %q", vals, g.Key(), w.Key())
		}
	}
}

func randomProbes(p *Program, n int, seed int64) [][]uint64 {
	r := rand.New(rand.NewSource(seed))
	probes := make([][]uint64, n)
	for i := range probes {
		vals := make([]uint64, len(p.Fields))
		for f := range vals {
			if max := p.Fields[f].Max; max != ^uint64(0) {
				vals[f] = r.Uint64() % (max + 1)
			} else {
				vals[f] = r.Uint64()
			}
		}
		probes[i] = vals
	}
	return probes
}

// TestParallelCompileMatchesSerialWithAggregates covers the stateful path:
// rules with aggregate predicates split into companion update rules during
// resolution, whatever the number of workers feeding the resolver.
func TestParallelCompileMatchesSerialWithAggregates(t *testing.T) {
	sp := itchSpec(t)
	src := `stock == GOOGL && avg(price) > 50 : fwd(1)
stock == AAPL && avg(price) < 100 : fwd(2)
stock == MSFT && sum(shares) > 1000 : fwd(3)
price > 500 : fwd(4)
stock == GOOGL : fwd(5)
`
	rules, err := lang.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Compile(sp, rules, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Compile(sp, rules, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSamePrograms(t, serial, par, randomProbes(serial, 200, 13))
}

// TestParallelCompileErrorMatchesSerial checks deterministic error
// reporting: the parallel path must surface the same (first-by-rule-order)
// error the serial path does.
func TestParallelCompileErrorMatchesSerial(t *testing.T) {
	sp := itchSpec(t)
	rules := make([]lang.Rule, 0, 600)
	for i := 0; i < 600; i++ {
		rules = append(rules, lang.Rule{
			ID: i,
			Cond: lang.Cmp{
				LHS: lang.Operand{Field: "price"},
				Op:  lang.OpGt,
				RHS: lang.Number(uint64(i)),
			},
			Actions: []lang.Action{lang.Fwd(1)},
		})
	}
	// Two bad rules: the reported error must be the earlier one.
	rules[100].Cond = lang.Cmp{LHS: lang.Operand{Field: "nosuch"}, Op: lang.OpEq, RHS: lang.Number(1)}
	rules[400].Cond = lang.Cmp{LHS: lang.Operand{Field: "alsobad"}, Op: lang.OpEq, RHS: lang.Number(1)}

	_, serialErr := Compile(sp, rules, Options{Workers: 1})
	if serialErr == nil {
		t.Fatal("expected serial compile error")
	}
	_, parErr := Compile(sp, rules, Options{Workers: 8})
	if parErr == nil {
		t.Fatal("expected parallel compile error")
	}
	if serialErr.Error() != parErr.Error() {
		t.Fatalf("error mismatch:\n serial:   %v\n parallel: %v", serialErr, parErr)
	}
}

// TestMergeActionsFwdBeatsDrop pins the fwd-vs-drop merge semantics: when
// one matching rule forwards and another drops, the packet is wanted and
// must be forwarded, not dropped.
func TestMergeActionsFwdBeatsDrop(t *testing.T) {
	ruleActions := [][]lang.Action{
		{lang.Fwd(3)},
		{lang.Drop()},
		{lang.Fwd(1, 3)},
	}
	as := mergeActions(ruleActions, []int{0, 1, 2})
	if as.Drop {
		t.Fatalf("fwd+drop merged to drop: %+v", as)
	}
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1, 3}) {
		t.Fatalf("ports = %v, want [1 3]", as.Ports)
	}

	// Drop alone stays a drop.
	as = mergeActions(ruleActions, []int{1})
	if !as.Drop || as.Ports.Len() != 0 {
		t.Fatalf("pure drop lost: %+v", as)
	}

	// End-to-end: a packet matched by both a fwd rule and a drop rule is
	// forwarded.
	sp := itchSpec(t)
	prog := compileSrc(t, sp, "stock == GOOGL : fwd(7)\nprice > 10 : drop()\n", Options{})
	got := prog.Evaluate(itchValues(prog, 1, encodeStock(t, sp, "GOOGL"), 500))
	if got.Drop || !reflect.DeepEqual(got.Ports.AppendTo(nil), []int{7}) {
		t.Fatalf("fwd+drop packet got %+v, want fwd(7)", got)
	}
}
