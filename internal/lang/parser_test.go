package lang

import (
	"strings"
	"testing"
)

func TestParsePaperExamples(t *testing.T) {
	// The four example rules from §2 of the paper.
	cases := []string{
		"ip.dst == 192.168.0.1 : fwd(1)",
		"stock == GOOGL : fwd(1)",
		"stock == GOOGL : fwd(1,2,3)",
		"stock == GOOGL && avg(price) > 50 : fwd(1)",
	}
	for _, src := range cases {
		r, err := ParseRule(src)
		if err != nil {
			t.Fatalf("ParseRule(%q): %v", src, err)
		}
		if r.Cond == nil || len(r.Actions) == 0 {
			t.Fatalf("ParseRule(%q): incomplete rule %+v", src, r)
		}
	}
}

func TestParseIPv4Literal(t *testing.T) {
	r, err := ParseRule("ip.dst == 192.168.0.1 : fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	cmp := r.Cond.(Cmp)
	want := uint64(192)<<24 | uint64(168)<<16 | 1
	if cmp.RHS.Kind != ValNumber || cmp.RHS.Num != want {
		t.Fatalf("IPv4 literal parsed as %+v, want %d", cmp.RHS, want)
	}
}

func TestParseMulticastPorts(t *testing.T) {
	r, err := ParseRule("stock == GOOGL : fwd(3,1,2)")
	if err != nil {
		t.Fatal(err)
	}
	a := r.Actions[0]
	if a.Kind != ActFwd || len(a.Ports) != 3 {
		t.Fatalf("bad action %+v", a)
	}
	// Ports are canonicalized to sorted order.
	if a.Ports[0] != 1 || a.Ports[1] != 2 || a.Ports[2] != 3 {
		t.Fatalf("ports not sorted: %v", a.Ports)
	}
}

func TestParseAggregate(t *testing.T) {
	r, err := ParseRule("stock == GOOGL && avg(price) > 50 : fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	and := r.Cond.(And)
	agg := and.R.(Cmp)
	if !agg.LHS.IsAggregate() || agg.LHS.Agg != "avg" || agg.LHS.Field != "price" {
		t.Fatalf("aggregate operand parsed as %+v", agg.LHS)
	}
}

func TestParseStateUpdateAction(t *testing.T) {
	r, err := ParseRule("stock == GOOGL : fwd(1); my_counter <- count()")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Actions) != 2 {
		t.Fatalf("want 2 actions, got %d", len(r.Actions))
	}
	upd := r.Actions[1]
	if upd.Kind != ActState || upd.Var != "my_counter" || upd.Func != "count" {
		t.Fatalf("bad state action %+v", upd)
	}
}

func TestParseMultipleRulesAndComments(t *testing.T) {
	src := `
# market data split
stock == GOOGL : fwd(1)
stock == MSFT && price > 100 : fwd(2)   // hot path
// a negated rule
!(stock == AAPL) : fwd(3)

stock == ORCL || stock == IBM : fwd(4)
`
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("want 4 rules, got %d", len(rules))
	}
	for i, r := range rules {
		if r.ID != i {
			t.Fatalf("rule %d has ID %d", i, r.ID)
		}
	}
}

// parseCondition parses src as the condition of a rule.
func parseCondition(src string) (Expr, error) {
	r, err := ParseRule(src + " : drop()")
	return r.Cond, err
}

func TestParsePrecedence(t *testing.T) {
	// && binds tighter than ||.
	e, err := parseCondition("a == 1 || b == 2 && c == 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := e.(Or)
	if !ok {
		t.Fatalf("top level should be Or, got %T", e)
	}
	if _, ok := or.R.(And); !ok {
		t.Fatalf("right of Or should be And, got %T", or.R)
	}
	// Parentheses override.
	e2, err := parseCondition("(a == 1 || b == 2) && c == 3")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.(And); !ok {
		t.Fatalf("parenthesized Or under And, got %T", e2)
	}
}

func TestParseUnicodeOperators(t *testing.T) {
	e, err := parseCondition("stock == GOOGL ∧ price > 50 ∨ shares < 10")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(Or); !ok {
		t.Fatalf("want Or at top, got %T", e)
	}
}

func TestParseKeywordOperators(t *testing.T) {
	e, err := parseCondition("stock == GOOGL and not price > 50")
	if err != nil {
		t.Fatal(err)
	}
	and, ok := e.(And)
	if !ok {
		t.Fatalf("want And, got %T", e)
	}
	if _, ok := and.R.(Not); !ok {
		t.Fatalf("want Not on right, got %T", and.R)
	}
}

func TestParseQuotedSymbols(t *testing.T) {
	r, err := ParseRule(`stock == "BRK.A" : fwd(1)`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := r.Cond.(Cmp)
	if cmp.RHS.Sym != "BRK.A" {
		t.Fatalf("quoted symbol parsed as %q", cmp.RHS.Sym)
	}
}

func TestParseHexLiteral(t *testing.T) {
	r, err := ParseRule("eth.type == 0x0800 : fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cond.(Cmp).RHS.Num != 0x0800 {
		t.Fatalf("hex literal wrong: %+v", r.Cond)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"stock = GOOGL : fwd(1)",                      // single '='
		"stock == GOOGL",                              // missing action
		"stock == GOOGL : fwd()",                      // empty port list
		": fwd(1)",                                    // missing condition
		"stock == GOOGL : fly(1)",                     // unknown action
		"stock == : fwd(1)",                           // missing value
		"price > 10 fwd(1)",                           // missing colon
		"stock == \"unterminated",                     // bad string
		"price > 99999999999999999999999999 : fwd(1)", // overflow
		"a == 1 & b == 2 : fwd(1)",                    // single '&'
		"fwd(70000) : fwd(70000)",                     // port out of range (and bad cond)
	}
	for _, src := range bad {
		if _, err := ParseRules(src); err == nil {
			t.Errorf("ParseRules(%q) should fail", src)
		}
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	srcs := []string{
		"stock == GOOGL : fwd(1)",
		"stock == GOOGL && price > 50 : fwd(1,2)",
		"!(stock == AAPL) : drop()",
	}
	for _, src := range srcs {
		r, err := ParseRule(src)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", r.String(), src, err)
		}
		if r2.String() != r.String() {
			t.Fatalf("round trip unstable: %q -> %q", r.String(), r2.String())
		}
	}
}

func TestParseTrueCondition(t *testing.T) {
	r, err := ParseRule("true : fwd(9)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Cond.(True); !ok {
		t.Fatalf("want True condition, got %T", r.Cond)
	}
}

func TestSyntaxErrorHasPosition(t *testing.T) {
	_, err := ParseRules("stock == GOOGL : fwd(1)\nprice > : fwd(2)")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should carry line info: %v", err)
	}
}

func TestParseKeyedOperands(t *testing.T) {
	r, err := ParseRule("hits[pkt.src] >= 100 && avg(temp)[sensor_id] > 30 : fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	and := r.Cond.(And)
	plain := and.L.(Cmp)
	if plain.LHS.Field != "hits" || plain.LHS.Key != "pkt.src" || plain.LHS.Agg != "" {
		t.Fatalf("keyed state read parsed as %+v", plain.LHS)
	}
	if !plain.LHS.IsKeyed() {
		t.Fatal("IsKeyed() false for keyed operand")
	}
	agg := and.R.(Cmp)
	if agg.LHS.Agg != "avg" || agg.LHS.Field != "temp" || agg.LHS.Key != "sensor_id" {
		t.Fatalf("keyed aggregate parsed as %+v", agg.LHS)
	}
	// String() round-trips through the parser.
	rt, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("round-trip of %q: %v", r.String(), err)
	}
	if rt.String() != r.String() {
		t.Fatalf("round-trip mismatch: %q vs %q", rt.String(), r.String())
	}
}

func TestParseKeyedStateUpdate(t *testing.T) {
	r, err := ParseRule("true : hits[pkt.src] <- count(); temp[sensor_id] <- sample(iot.value)")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Actions) != 2 {
		t.Fatalf("want 2 actions, got %d", len(r.Actions))
	}
	a := r.Actions[0]
	if a.Kind != ActState || a.Var != "hits" || a.StateKey != "pkt.src" || a.Func != "count" {
		t.Fatalf("bad keyed update %+v", a)
	}
	b := r.Actions[1]
	if b.StateKey != "sensor_id" || b.Func != "sample" || len(b.Args) != 1 || b.Args[0] != "iot.value" {
		t.Fatalf("bad keyed update %+v", b)
	}
	if got, want := a.String(), "hits[pkt.src] <- count()"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if a.Equal(b) {
		t.Fatal("distinct keyed updates compare Equal")
	}
	if c := KeyedStateUpdate("hits", "pkt.src", "count"); !a.Equal(c) {
		t.Fatalf("KeyedStateUpdate not Equal to parsed action: %+v vs %+v", a, c)
	}
	// Round-trip.
	rt, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("round-trip of %q: %v", r.String(), err)
	}
	if rt.String() != r.String() {
		t.Fatalf("round-trip mismatch: %q vs %q", rt.String(), r.String())
	}
}

func TestParseKeyedErrors(t *testing.T) {
	for _, src := range []string{
		"hits[ >= 1 : fwd(1)",
		"hits[1] >= 1 : fwd(1)",
		"hits[pkt.src >= 1 : fwd(1)",
		"true : hits[ <- count()",
		"true : hits[pkt.src <- count()",
	} {
		if _, err := ParseRule(src); err == nil {
			t.Errorf("ParseRule(%q): want error, got nil", src)
		}
	}
}
