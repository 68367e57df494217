package compiler

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"camus/internal/telemetry"
)

// TestSessionMatchesOneShotCompile: a session that adds all rules once and
// recompiles must equal CompileSource output exactly.
func TestSessionMatchesOneShotCompile(t *testing.T) {
	sp := itchSpec(t)
	src := `stock == GOOGL && price > 100 : fwd(1)
stock == AAPL : fwd(2)
price < 50 && shares > 10 : fwd(3)
stock == MSFT && avg(price) > 70 : fwd(4)
`
	want := compileSrc(t, sp, src, Options{})

	s := NewSession(sp, Options{})
	if _, err := s.AddSource(src); err != nil {
		t.Fatal(err)
	}
	got, err := s.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("stats differ:\n one-shot: %+v\n session:  %+v", want.Stats, got.Stats)
	}
	if w, g := want.Dump(), got.Dump(); w != g {
		t.Fatalf("dumps differ:\n--- one-shot ---\n%s\n--- session ---\n%s", w, g)
	}
}

// TestSessionRemoveSemantics: after removing a rule, packets only it
// matched are dropped; packets other rules match are unaffected.
func TestSessionRemoveSemantics(t *testing.T) {
	sp := itchSpec(t)
	s := NewSession(sp, Options{})
	h1, err := s.AddSource("stock == GOOGL : fwd(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s.AddSource("stock == AAPL : fwd(2)\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	googl := encodeStock(t, sp, "GOOGL")
	aapl := encodeStock(t, sp, "AAPL")
	if as := prog.Evaluate(itchValues(prog, 1, googl, 10)); !reflect.DeepEqual(as.Ports, []int{1}) {
		t.Fatalf("GOOGL before remove: %+v", as)
	}

	if err := s.RemoveRules(h1...); err != nil {
		t.Fatal(err)
	}
	prog2, err := s.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if as := prog2.Evaluate(itchValues(prog2, 1, googl, 10)); !as.Drop {
		t.Fatalf("GOOGL after remove still forwarded: %+v", as)
	}
	if as := prog2.Evaluate(itchValues(prog2, 1, aapl, 10)); !reflect.DeepEqual(as.Ports, []int{2}) {
		t.Fatalf("AAPL after unrelated remove: %+v", as)
	}

	// The earlier program object must be untouched by the recompile.
	if as := prog.Evaluate(itchValues(prog, 1, googl, 10)); !reflect.DeepEqual(as.Ports, []int{1}) {
		t.Fatalf("old program mutated by recompile: %+v", as)
	}
	_ = h2
}

// TestSessionRemoveErrors: unknown and duplicate handles are rejected
// without corrupting the session.
func TestSessionRemoveErrors(t *testing.T) {
	sp := itchSpec(t)
	s := NewSession(sp, Options{})
	h, err := s.AddSource("stock == GOOGL : fwd(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveRules(12345); err == nil {
		t.Fatal("removing unknown handle succeeded")
	}
	if err := s.RemoveRules(h[0], h[0]); err == nil {
		t.Fatal("removing a handle twice in one call succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("failed removes changed live count to %d", s.Len())
	}
	if err := s.RemoveRules(h[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveRules(h[0]); err == nil {
		t.Fatal("double remove across calls succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("live count %d after removing the only rule", s.Len())
	}
	if _, err := s.Recompile(); err != nil {
		t.Fatalf("recompiling the empty session: %v", err)
	}
}

// TestSessionArenaTrimmed: heavy churn must not grow the memo arena
// without bound — Recompile resets it once stranded nodes dominate.
func TestSessionArenaTrimmed(t *testing.T) {
	sp := itchSpec(t)
	s := NewSession(sp, Options{})
	keep, err := s.AddSource("stock == GOOGL : fwd(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	_ = keep
	if _, err := s.Recompile(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		h, err := s.AddSource("stock == AAPL && price > 10 && shares < 500 : fwd(3)\nstock == MSFT && price < 900 : fwd(4)\n")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recompile(); err != nil {
			t.Fatal(err)
		}
		if err := s.RemoveRules(h...); err != nil {
			t.Fatal(err)
		}
	}
	prog, err := s.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	if s.ArenaNodes() > arenaSlack*prog.Stats.BDDNodes+4096 {
		t.Fatalf("arena retains %d nodes for a %d-node live BDD", s.ArenaNodes(), prog.Stats.BDDNodes)
	}
}

// TestSessionMemoMissesAreNewClasses: a memo miss is a class a recompile had
// to make an ActionSet of, a hit a terminal whose class the arena had. After
// a warm Recompile over 1% churn localized to one symbol — some of it to
// ports no class had — the misses are at most the classes new to the arena,
// and hits and misses together are the terminals.
func TestSessionMemoMissesAreNewClasses(t *testing.T) {
	const symbols, perSymbol = 20, 50
	rule := func(sym, k, port int) string {
		return fmt.Sprintf("stock == S%02d && price > %d : fwd(%d)\n", sym, 10*k, port)
	}
	reg := telemetry.NewRegistry()
	s := NewSession(itchSpec(t), Options{Telemetry: reg})
	var churned []int
	for sym := 0; sym < symbols; sym++ {
		var src strings.Builder
		for k := 0; k < perSymbol; k++ {
			src.WriteString(rule(sym, k, 1+(sym+k)%8))
		}
		h, err := s.AddSource(src.String())
		if err != nil {
			t.Fatal(err)
		}
		if sym == 3 {
			churned = h[:symbols*perSymbol/200]
		}
	}
	if _, err := s.Recompile(); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, as := range s.arena.sets {
		known[as.Key()] = true
	}
	if err := s.RemoveRules(churned...); err != nil {
		t.Fatal(err)
	}
	var add strings.Builder
	for k := range churned {
		add.WriteString(rule(3, 2*k+1, 9+k%3))
	}
	if _, err := s.AddSource(add.String()); err != nil {
		t.Fatal(err)
	}
	hits, misses := reg.Counter("camus_compiler_memo_hits_total"), reg.Counter("camus_compiler_memo_misses_total")
	hits0, misses0 := hits.Load(), misses.Load()
	prog, err := s.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	fresh := uint64(0)
	for _, term := range prog.BDD.Terminals() {
		if !known[s.arena.sets[term.Class].Key()] {
			fresh++
		}
	}
	h, m := hits.Load()-hits0, misses.Load()-misses0
	if m > fresh || h+m != uint64(len(prog.BDD.Terminals())) || fresh == 0 || h == 0 {
		t.Errorf("warm recompile: %d hits, %d misses over %d terminals, %d classes new to the arena", h, m, len(prog.BDD.Terminals()), fresh)
	}
	t.Logf("warm recompile: %d hits, %d misses, %d classes new to the arena", h, m, fresh)
}

// TestSessionArenaBoundedWithinOneClass: churn that makes no node must still
// be trimmed. Every symbol has two ports, so only each port's lowest
// threshold decides anything; the churned rules sit above it, fall into
// classes that already have their terminal and leave the node count flat
// while the arena's payload-set and subproblem tables take an entry for each
// new set of matching rules. What the arena retains has to stay within
// arenaSlack of what a cold build of the same live set retains.
func TestSessionArenaBoundedWithinOneClass(t *testing.T) {
	sp := itchSpec(t)
	const symbols, perSymbol, churn, rounds = 20, 10, 50, 300
	rule := func(sym, k int) string {
		return fmt.Sprintf("stock == S%02d && price > %d : fwd(%d)\n", sym, 100+k, 1+sym*2+k%2)
	}
	var base strings.Builder
	for sym := 0; sym < symbols; sym++ {
		for k := 0; k < perSymbol; k++ {
			base.WriteString(rule(sym, k))
		}
	}
	s := NewSession(sp, Options{})
	if _, err := s.AddSource(base.String()); err != nil {
		t.Fatal(err)
	}
	first, err := s.Recompile()
	if err != nil {
		t.Fatal(err)
	}

	next := perSymbol // thresholds above every symbol's lowest two
	cold, resets, peak := 0, 0, 0
	for round := 0; round < rounds; round++ {
		var add strings.Builder
		for i := 0; i < churn; i++ {
			add.WriteString(rule(i%symbols, next))
			next++
		}
		if round == 0 {
			// What a cold build of the live set retains; every round's live
			// set has this one's shape.
			fresh := NewSession(sp, Options{})
			if _, err := fresh.AddSource(base.String() + add.String()); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Recompile(); err != nil {
				t.Fatal(err)
			}
			cold = fresh.arena.builder.Retained()
		}
		h, err := s.AddSource(add.String())
		if err != nil {
			t.Fatal(err)
		}
		before := s.arena
		prog, err := s.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		if s.arena != before {
			resets++
		}
		if prog.Stats.BDDNodes != first.Stats.BDDNodes {
			t.Fatalf("round %d: %d nodes, the unchurned set has %d: the churn left its classes", round, prog.Stats.BDDNodes, first.Stats.BDDNodes)
		}
		peak = max(peak, s.arena.builder.Retained())
		if err := s.RemoveRules(h...); err != nil {
			t.Fatal(err)
		}
	}
	// Recompile weighs the arena before it builds, so the build that tips it
	// over adds its own entries on top: at most a cold build's worth.
	bound := (arenaSlack+1)*cold + 4096
	if peak > bound {
		t.Fatalf("arena retained up to %d entries (%d nodes); a cold build retains %d, bound %d", peak, s.ArenaNodes(), cold, bound)
	}
	if resets == 0 {
		t.Fatalf("no reset in %d rounds (peak %d, cold %d): the churn strands nothing and the test proves nothing", rounds, peak, cold)
	}
	t.Logf("cold %d, peak %d, bound %d, %d resets, %d arena nodes", cold, peak, bound, resets, s.ArenaNodes())
}
