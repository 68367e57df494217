package compiler

import (
	"reflect"
	"strings"
	"testing"
)

func TestTraceMatchesEvaluate(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, `
stock == GOOGL && price > 50 : fwd(1)
stock == GOOGL : fwd(2)
stock == AAPL : fwd(3)
`, Options{})
	googl := encodeStock(t, sp, "GOOGL")
	vals := itchValues(p, 0, googl, 100)
	tr := p.Trace(vals)
	as := p.Evaluate(vals)
	if tr.Action.String() != as.String() {
		t.Fatalf("trace action %s != evaluate %s", tr.Action, as)
	}
	if !reflect.DeepEqual(tr.MatchedRules, []int{0, 1}) {
		t.Fatalf("matched rules = %v, want [0 1]", tr.MatchedRules)
	}
	if len(tr.Steps) != len(p.Tables) {
		t.Fatalf("steps = %d, want %d", len(tr.Steps), len(p.Tables))
	}
	// The rendered trace mentions the stock table and the merged action.
	out := tr.String()
	for _, want := range []string{"add_order.stock", "fwd(1,2)", "matched rules: [0 1]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

// Two rules that do the same thing share every terminal they reach, so the
// terminal cannot say which of them matched: Trace asks the rules.
func TestTraceMatchedRulesAcrossOneClass(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "price > 10 : fwd(1)\nprice > 20 : fwd(1)\n", Options{})
	if n := len(p.BDD.Terminals()); n != 2 {
		t.Fatalf("%d terminals, want drop and fwd(1)", n)
	}
	for price, want := range map[uint64][]int{5: nil, 15: {0}, 25: {0, 1}} {
		tr := p.Trace(itchValues(p, 0, 0, price))
		if !reflect.DeepEqual(tr.MatchedRules, want) {
			t.Errorf("price %d: matched rules %v, want %v", price, tr.MatchedRules, want)
		}
		if got := tr.Action.String(); (want == nil) != (got == "drop()") {
			t.Errorf("price %d: action %s beside matched rules %v", price, got, want)
		}
	}
}

func TestTraceMissShowsStateUnchanged(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "stock == GOOGL : fwd(1)", Options{})
	vals := itchValues(p, 0, encodeStock(t, sp, "IBM"), 0)
	tr := p.Trace(vals)
	if !tr.Action.Drop {
		t.Fatalf("IBM should drop: %+v", tr.Action)
	}
	if len(tr.MatchedRules) != 0 {
		t.Fatalf("matched rules = %v", tr.MatchedRules)
	}
}

func TestParseValueAssignment(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "stock == GOOGL && price > 50 : fwd(1)", Options{})
	vals, err := p.ParseValueAssignment("stock=GOOGL, price=55")
	if err != nil {
		t.Fatal(err)
	}
	as := p.Evaluate(vals)
	if len(as.Ports) != 1 {
		t.Fatalf("assignment should match: %+v (vals=%v)", as, vals)
	}
	// Empty assignment: all zeros.
	zeros, err := p.ParseValueAssignment("")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range zeros {
		if v != 0 {
			t.Fatal("empty assignment should be all zero")
		}
	}
	// Errors.
	for _, bad := range []string{"nofield=1", "price", "stock=\x01"} {
		if _, err := p.ParseValueAssignment(bad); err == nil {
			t.Errorf("ParseValueAssignment(%q) should fail", bad)
		}
	}
}
