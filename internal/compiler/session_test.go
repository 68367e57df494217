package compiler

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"camus/internal/lang"
	"camus/internal/spec"
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
	if as := prog.Evaluate(itchValues(prog, 1, googl, 10)); !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1}) {
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
	if as := prog2.Evaluate(itchValues(prog2, 1, aapl, 10)); !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{2}) {
		t.Fatalf("AAPL after unrelated remove: %+v", as)
	}

	// The earlier program object must be untouched by the recompile.
	if as := prog.Evaluate(itchValues(prog, 1, googl, 10)); !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1}) {
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

// TestSessionArenaTrimmed: heavy churn must not grow the session without
// bound. A recompile builds on an arena of its own, so the session keeps no
// nodes of it (ArenaNodes is the last diagram's size), and the handles and
// payload IDs of removed rules are given to the rules that come after them.
func TestSessionArenaTrimmed(t *testing.T) {
	sp := itchSpec(t)
	s := NewSession(sp, Options{})
	if _, err := s.AddSource("stock == GOOGL : fwd(1)\n"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		h, err := s.AddSource(fmt.Sprintf("stock == AAPL && price > %d && shares < 500 : fwd(3)\nstock == MSFT && avg(price) < %d : fwd(4)\n", 10+round, 900-round))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := s.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		if s.ArenaNodes() != prog.Stats.BDDNodes {
			t.Fatalf("round %d: %d arena nodes for a %d-node diagram", round, s.ArenaNodes(), prog.Stats.BDDNodes)
		}
		if err := s.RemoveRules(h...); err != nil {
			t.Fatal(err)
		}
	}
	// One rule stays, two come and go: four payload IDs (the macro rule
	// has a companion) and three handles at most.
	if len(s.res.actions) > 4 || len(s.rules) > 3 {
		t.Fatalf("after 40 rounds of churn the session holds %d payload IDs and %d handles for %d live rules", len(s.res.actions), len(s.rules), s.Len())
	}
	// The same from text: each set keeps one rule of the last and
	// brings two, so at most five rules' IDs and handles are ever taken.
	s = NewSession(sp, Options{})
	for round := 0; round < 40; round++ {
		src := fmt.Sprintf("stock == GOOGL : fwd(1)\nstock == AAPL && price > %d : fwd(3)\nstock == MSFT && avg(price) < %d : fwd(4)\n", 10+round, 900-round)
		if err := s.Sync(context.Background(), Source{Text: src}); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.res.actions) > 7 || len(s.rules) > 5 {
		t.Fatalf("after 40 syncs the session holds %d payload IDs and %d handles for %d live rules", len(s.res.actions), len(s.rules), s.Len())
	}
}

// TestSessionLowersLiveStateFields: once churn leaves a state field that no
// live rule reads, or state fields in an order the live rules would not
// make, a recompile still lowers on the field table a cold compile of the
// live rules would: the same fields, tables and program.
func TestSessionLowersLiveStateFields(t *testing.T) {
	sp, err := spec.Parse(itchSpecSrc + "@query_counter(rate, 10000)\n@query_counter(px, 10000)\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		batches []string // added in order; the first is then removed
	}{
		{"unread", []string{
			"true : rate[add_order.stock] <- count()\nrate[add_order.stock] > 5 : fwd(2)\n",
			"add_order.price > 10 : fwd(1)\n",
		}},
		{"reordered", []string{
			"rate[add_order.stock] > 5 : fwd(1)\n",
			"px[add_order.stock] > 3 : fwd(2)\nrate[add_order.stock] > 7 : fwd(3)\n",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(sp, Options{})
			var first []int
			for i, src := range tc.batches {
				h, err := s.AddSource(src)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = h
				}
			}
			if _, err := s.Recompile(); err != nil {
				t.Fatal(err)
			}
			if err := s.RemoveRules(first...); err != nil {
				t.Fatal(err)
			}
			got, err := s.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			want := compileSrc(t, sp, strings.Join(tc.batches[1:], ""), Options{})
			if !reflect.DeepEqual(got.Fields, want.Fields) || len(got.Tables) != len(want.Tables) {
				t.Errorf("session fields %+v,\ncold fields %+v", got.Fields, want.Fields)
			}
			if g, w := got.Dump(), want.Dump(); g != w {
				t.Errorf("dumps differ:\n--- session ---\n%s\n--- cold ---\n%s", g, w)
			}
		})
	}
}

// TestSessionSync pins Sync's contract: a set it cannot resolve changes
// nothing, identical rules each count, and a set already live — added by
// handle — keeps its handles, in the set's order, even when it is a small
// part of what was live; the program is CompileSource's of the set, and each
// handle kept removes its own rule.
func TestSessionSync(t *testing.T) {
	sp := itchSpec(t)
	const a, b = "stock == GOOGL : fwd(1)\n", "stock == AAPL && price > 10 : fwd(2)\n"
	const more = "stock == MSFT : fwd(3)\nstock == IBM : fwd(4)\nstock == ORCL : fwd(5)\nstock == INTC : fwd(6)\n"
	for _, tc := range []struct {
		name       string
		live, sync string // added by AddRules, then synced
		err        bool
		len        int
		handles    []int // the live set after the Sync, as places in live
	}{
		{"unresolvable rule", a, b + "nosuch > 1 : fwd(3)\n", true, 1, []int{0}},
		{"identical rules", "", a + b + a, false, 3, nil},
		{"after AddRules", a + b, b + a, false, 2, []int{1, 0}},
		{"shrinking after AddRules", a + b + more + more, b, false, 1, []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(sp, Options{})
			live, err := lang.ParseRules(tc.live)
			if err != nil {
				t.Fatal(err)
			}
			added, err := s.AddRules(live)
			if err != nil {
				t.Fatal(err)
			}
			set, err := lang.ParseRules(tc.sync)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(context.Background(), Source{Rules: set}); (err != nil) != tc.err {
				t.Fatalf("Sync: error %v, want one: %v", err, tc.err)
			}
			if s.Len() != tc.len {
				t.Errorf("Len %d after Sync, want %d", s.Len(), tc.len)
			}
			if tc.handles != nil {
				want := make([]int32, len(tc.handles))
				for i, k := range tc.handles {
					want[i] = int32(added[k])
				}
				if !slices.Equal(s.order, want) {
					t.Errorf("handles %v after Sync, want %v", s.order, want)
				}
			}
			got, err := s.Recompile()
			if err != nil {
				t.Fatal(err)
			}
			src := tc.sync
			if tc.err {
				src = tc.live
			}
			if want := compileSrc(t, sp, src, Options{}); !reflect.DeepEqual(got.Stats, want.Stats) || got.Dump() != want.Dump() {
				t.Errorf("session program is not CompileSource's of\n%s--- session ---\n%s--- cold ---\n%s", src, got.Dump(), want.Dump())
			}
			for i, k := range tc.handles {
				if err := s.RemoveRules(added[k]); err != nil {
					t.Fatal(err)
				}
				if s.Len() != len(tc.handles)-1-i {
					t.Fatalf("Len %d after removing %d of the %d kept handles", s.Len(), i+1, len(tc.handles))
				}
			}
		})
	}
}

// TestSessionSyncIsCompileOfTheSet: whether by rules or by text, a synced
// session's program is CompileSource's of the set it was given last — each
// repeat a rule, in the set's order, and so each state field where the set
// first reads it. A set CompileSource refuses fails, by text with its
// error, and leaves nothing behind.
func TestSessionSyncIsCompileOfTheSet(t *testing.T) {
	sp, err := spec.Parse(itchSpecSrc + "@query_counter(rate, 10000)\n@query_counter(px, 10000)\n")
	if err != nil {
		t.Fatal(err)
	}
	const a, b = "stock == GOOGL : fwd(1)\n", "stock == AAPL && price > 10 : fwd(2)\n"
	const r1, r2 = "rate[add_order.stock] > 5 : fwd(1)\n", "avg(px)[add_order.stock] > 3 : fwd(2)\n"
	const bad = "nosuch > 1 : fwd(3)\n"
	for _, sets := range [][]string{
		{a + b + a},
		{r1 + r2, r2 + r1},
		{a + b, b + a + "# note\n\n" + b, a},
		{a, r1 + bad + b, b + r1},
	} {
		rules, text := NewSession(sp, Options{}), NewSession(sp, Options{})
		for _, set := range sets {
			parsed, err := lang.ParseRules(set)
			if err != nil {
				t.Fatal(err)
			}
			rulesErr := rules.Sync(context.Background(), Source{Rules: parsed})
			textErr := text.Sync(context.Background(), Source{Text: set})
			if _, wantErr := CompileSource(sp, set, Options{}); wantErr != nil {
				// A set that fails changes nothing; the next must still be
				// CompileSource's.
				if rulesErr == nil || textErr == nil || textErr.Error() != wantErr.Error() {
					t.Fatalf("to %q: Sync of rules %v, of text %v, CompileSource %v", set, rulesErr, textErr, wantErr)
				}
				continue
			}
			if rulesErr != nil || textErr != nil {
				t.Fatalf("to %q: Sync of rules %v, of text %v", set, rulesErr, textErr)
			}
			want := compileSrc(t, sp, set, Options{})
			for _, route := range []struct {
				name string
				s    *Session
			}{{"rules", rules}, {"text", text}} {
				got, err := route.s.Recompile()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.Fields, want.Fields) || got.Dump() != want.Dump() {
					t.Errorf("%s to %q after %q: %+v, CompileSource %+v\n--- session ---\n%s--- cold ---\n%s",
						route.name, set, sets, got.Stats, want.Stats, got.Dump(), want.Dump())
				}
			}
		}
	}
}
