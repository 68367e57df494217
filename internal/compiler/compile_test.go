package compiler

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

const itchSpecSrc = `
header_type itch_add_order_t {
    fields {
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;

@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
`

func itchSpec(t testing.TB) *spec.Spec {
	t.Helper()
	s, err := spec.Parse(itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compileSrc(t testing.TB, sp *spec.Spec, rules string, opts Options) *Program {
	t.Helper()
	p, err := CompileSource(sp, rules, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// passSrc compiles rule text through a Pass, which keeps the diagram and
// the conjunctions its program was lowered from.
func passSrc(t testing.TB, sp *spec.Spec, rules string, opts Options) *Pass {
	t.Helper()
	p, err := Observe(context.Background(), sp, Source{Text: rules}, opts, nil)
	if err == nil {
		_, err = p.Compile()
	}
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

func encodeStock(t testing.TB, sp *spec.Spec, sym string) uint64 {
	t.Helper()
	q, err := sp.LookupField("stock")
	if err != nil {
		t.Fatal(err)
	}
	v, err := spec.EncodeSymbol(q, sym)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// values builds the pipeline value vector for (shares, stock, price) in
// the spec's field order.
func itchValues(p *Program, shares, stock, price uint64) []uint64 {
	vals := make([]uint64, len(p.Fields))
	for i, f := range p.Fields {
		switch f.Name {
		case "add_order.shares":
			vals[i] = shares
		case "add_order.stock":
			vals[i] = stock
		case "add_order.price":
			vals[i] = price
		}
	}
	return vals
}

func TestPaperFigure4Shape(t *testing.T) {
	sp := itchSpec(t)
	// Rules shaped like Figure 3: conditions on shares then stock, and one
	// on shares alone, so that the '*' row under few shares leads somewhere.
	rules := `
shares < 60 && stock == AAPL : fwd(3)
shares < 60 && stock == AAPL : fwd(1); fwd(2)
shares > 100 && stock == MSFT : fwd(1)
shares < 60 : fwd(4)
`
	pass := passSrc(t, sp, rules, Options{})
	p := pass.prog
	aapl := encodeStock(t, sp, "AAPL")
	msft := encodeStock(t, sp, "MSFT")

	// AAPL with few shares matches rules 1, 2 and 4: merged fwd(1,2,3,4).
	as := p.Evaluate(itchValues(p, 59, aapl, 0))
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1, 2, 3, 4}) {
		t.Fatalf("AAPL@59 ports = %v, want [1 2 3 4]", as.Ports)
	}
	if as.Group < 0 {
		t.Fatal("multi-port forward should have a multicast group")
	}
	// MSFT with many shares: fwd(1) only.
	as = p.Evaluate(itchValues(p, 101, msft, 0))
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1}) {
		t.Fatalf("MSFT@101 ports = %v, want [1]", as.Ports)
	}
	if as.Group != -1 {
		t.Fatal("unicast should have no group")
	}
	// No match: no row leads to the drop, so the shares table misses, the
	// state stays put and the leaf's default drops.
	vals := itchValues(p, 80, aapl, 0)
	as = p.Evaluate(vals)
	if !as.Drop || as.Ports.Len() != 0 {
		t.Fatalf("AAPL@80 should drop, got %+v", as)
	}
	tr := pass.Trace(vals)
	if !slices.ContainsFunc(tr.Steps, func(s TraceStep) bool { return s.Entry == nil && s.ToState == s.FromState }) ||
		tr.Action.Key() != as.Key() {
		t.Fatalf("AAPL@80 should miss a table and drop:\n%s", tr)
	}

	// The shares table carries range entries; the stock table is exact
	// with a per-state wildcard (the '*' rows of Fig. 4) where one leads
	// somewhere.
	var sharesTab, stockTab *Table
	for i, f := range p.Fields {
		switch f.Name {
		case "add_order.shares":
			sharesTab = p.Tables[i]
		case "add_order.stock":
			stockTab = p.Tables[i]
		}
	}
	hasRange := false
	for _, e := range sharesTab.Entries {
		if e.Kind == EntryRange {
			hasRange = true
		}
	}
	if !hasRange && sharesTab.Codec == nil {
		t.Fatalf("shares table should use ranges (or a codec): %+v", sharesTab.Entries)
	}
	if stockTab.Match != spec.MatchExact {
		t.Fatalf("stock table should be exact, got %v", stockTab.Match)
	}
	hasWild, hasExact := false, false
	for _, e := range stockTab.Entries {
		switch e.Kind {
		case EntryWild:
			hasWild = true
		case EntryExact:
			hasExact = true
		}
	}
	if !hasExact || !hasWild {
		t.Fatalf("stock table should mix exact and wildcard rows: %+v", stockTab.Entries)
	}
}

// referenceEval evaluates rules directly (independent of the compiler
// pipeline) and returns the merged forwarded port set.
func referenceEval(t testing.TB, sp *spec.Spec, rules []lang.Rule, env map[string]uint64) []int {
	t.Helper()
	portSet := map[int]bool{}
	for _, r := range rules {
		if evalCond(t, sp, r.Cond, env) {
			for _, a := range r.Actions {
				if a.Kind == lang.ActFwd {
					for _, pt := range a.Ports {
						portSet[pt] = true
					}
				}
			}
		}
	}
	var ports []int
	for pt := range portSet {
		ports = append(ports, pt)
	}
	for i := 1; i < len(ports); i++ {
		for j := i; j > 0 && ports[j] < ports[j-1]; j-- {
			ports[j], ports[j-1] = ports[j-1], ports[j]
		}
	}
	return ports
}

func evalCond(t testing.TB, sp *spec.Spec, e lang.Expr, env map[string]uint64) bool {
	switch e := e.(type) {
	case lang.True:
		return true
	case lang.And:
		return evalCond(t, sp, e.L, env) && evalCond(t, sp, e.R, env)
	case lang.Or:
		return evalCond(t, sp, e.L, env) || evalCond(t, sp, e.R, env)
	case lang.Not:
		return !evalCond(t, sp, e.X, env)
	case lang.Cmp:
		q, err := sp.LookupField(e.LHS.Field)
		if err != nil {
			t.Fatal(err)
		}
		v := env[q.Name]
		rhs := e.RHS.Num
		if e.RHS.Kind == lang.ValSymbol {
			rhs, err = spec.EncodeSymbol(q, e.RHS.Sym)
			if err != nil {
				t.Fatal(err)
			}
		}
		switch e.Op {
		case lang.OpEq:
			return v == rhs
		case lang.OpNeq:
			return v != rhs
		case lang.OpLt:
			return v < rhs
		case lang.OpGt:
			return v > rhs
		case lang.OpLe:
			return v <= rhs
		default:
			return v >= rhs
		}
	}
	t.Fatalf("unknown expr %T", e)
	return false
}

var testSymbols = []string{"AAPL", "MSFT", "GOOGL", "ORCL", "IBM", "AMZN", "NVDA", "TSLA"}

// randomITCHRules generates random subscriptions over the ITCH spec.
func randomITCHRules(r *rand.Rand, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		sym := testSymbols[r.Intn(len(testSymbols))]
		port := 1 + r.Intn(8)
		switch r.Intn(5) {
		case 0:
			fmt.Fprintf(&b, "stock == %s : fwd(%d)\n", sym, port)
		case 1:
			fmt.Fprintf(&b, "stock == %s && price > %d : fwd(%d)\n", sym, r.Intn(1000), port)
		case 2:
			fmt.Fprintf(&b, "stock == %s && price < %d && shares > %d : fwd(%d)\n", sym, r.Intn(1000), r.Intn(500), port)
		case 3:
			fmt.Fprintf(&b, "(stock == %s || stock == %s) && price > %d : fwd(%d,%d)\n",
				sym, testSymbols[r.Intn(len(testSymbols))], r.Intn(1000), port, 1+r.Intn(8))
		default:
			fmt.Fprintf(&b, "!(stock == %s) && shares < %d : fwd(%d)\n", sym, 1+r.Intn(500), port)
		}
	}
	return b.String()
}

// TestDifferentialRandomRules compiles random rule sets and checks the
// table pipeline against direct rule evaluation on random packets — the
// end-to-end correctness property of the whole compiler.
func TestDifferentialRandomRules(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	sp := itchSpec(t)
	for trial := 0; trial < 40; trial++ {
		src := randomITCHRules(r, 2+r.Intn(20))
		rules, err := lang.ParseRules(src)
		if err != nil {
			t.Fatalf("trial %d: parse: %v\n%s", trial, err, src)
		}
		for _, opts := range []Options{{}, {DisableCompression: true}, {DisableExactLowering: true, DisableCompression: true}} {
			p, err := Compile(sp, rules, opts)
			if err != nil {
				t.Fatalf("trial %d (%+v): compile: %v\n%s", trial, opts, err, src)
			}
			for probe := 0; probe < 100; probe++ {
				sym := testSymbols[r.Intn(len(testSymbols))]
				stock := encodeStock(t, sp, sym)
				shares := r.Uint64() % 600
				price := r.Uint64() % 1100
				env := map[string]uint64{
					"add_order.shares": shares,
					"add_order.stock":  stock,
					"add_order.price":  price,
				}
				want := referenceEval(t, sp, rules, env)
				got := p.Evaluate(itchValues(p, shares, stock, price)).Ports.AppendTo(nil)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d probe %d (%+v): packet{shares=%d stock=%s price=%d}\ngot ports %v want %v\nrules:\n%s\ntables:\n%s",
						trial, probe, opts, shares, sym, price, got, want, src, p.Dump())
				}
			}
		}
	}
}

func TestExactLoweringOfEqualityOnlyField(t *testing.T) {
	sp := itchSpec(t)
	// price is a range field in the spec, but these rules only use ==.
	p := compileSrc(t, sp, "price == 100 : fwd(1)\nprice == 200 : fwd(2)\n", Options{})
	for i, f := range p.Fields {
		if f.Name == "add_order.price" {
			if p.Tables[i].Match != spec.MatchExact {
				t.Fatalf("price table should be auto-lowered to exact, got %v", p.Tables[i].Match)
			}
		}
	}
}

func TestRangeOnExactFieldRejected(t *testing.T) {
	sp := itchSpec(t)
	// stock is declared exact; a range predicate on it must be a
	// compile-time error.
	_, err := CompileSource(sp, "stock > AAPL && stock < MSFT : fwd(1)", Options{})
	if err == nil {
		t.Fatal("range predicates on an exact field should fail to compile")
	}
}

// TestForwardPortOutOfRangeRejected: rules built in Go, not parsed, are held
// to the parser's port range, which is what a PortSet holds.
func TestForwardPortOutOfRangeRejected(t *testing.T) {
	sp := itchSpec(t)
	for _, port := range []int{-1, lang.MaxPort + 1} {
		rule := lang.Rule{Cond: lang.True{}, Actions: []lang.Action{lang.Fwd(1, port)}}
		if _, err := Compile(sp, []lang.Rule{rule}, Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("fwd(1,%d) compiled: %v", port, err)
		}
	}
	if _, err := Compile(sp, []lang.Rule{{Cond: lang.True{}, Actions: []lang.Action{lang.Fwd(0, lang.MaxPort)}}}, Options{}); err != nil {
		t.Error(err)
	}
}

func TestMulticastGroupDeduplication(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, `
stock == AAPL : fwd(1,2)
stock == MSFT : fwd(1,2)
stock == GOOGL : fwd(3,4)
`, Options{})
	if len(p.Groups) != 2 {
		t.Fatalf("want 2 multicast groups, got %d: %v", len(p.Groups), p.Groups)
	}
	if p.Stats.MulticastGroups != 2 {
		t.Fatalf("stats groups = %d", p.Stats.MulticastGroups)
	}
	// An action set that updates state shares the group of one that only
	// forwards to the same ports.
	p = compileSrc(t, sp, `
stock == AAPL : fwd(1,2)
stock == MSFT && avg(price) > 50 : fwd(1,2)
`, Options{})
	groups := map[int]int{}
	for _, as := range p.Actions {
		if as.Ports.Len() > 1 {
			groups[as.Group] += 1 + len(as.Updates)
		}
	}
	if len(p.Groups) != 1 || len(groups) != 1 || groups[0] < 3 || cap(p.Groups) != 1 {
		t.Fatalf("fwd(1,2) with and without a state update: groups %v, by action %v", p.Groups, groups)
	}
}

func TestAggregateSplitsRule(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "stock == GOOGL && avg(price) > 50 : fwd(1)", Options{})
	// A synthetic state field must exist.
	foundState := false
	for _, f := range p.Fields {
		if f.IsState && f.Agg == "avg" && f.BaseField == "add_order.price" {
			foundState = true
		}
	}
	if !foundState {
		t.Fatalf("no synthetic aggregate field: %+v", p.Fields)
	}
	// When stock==GOOGL but the average is low, the update action must
	// still fire (paper: "updated when the rest of the rule matches").
	googl := encodeStock(t, sp, "GOOGL")
	vals := make([]uint64, len(p.Fields))
	for i, f := range p.Fields {
		if f.Name == "add_order.stock" {
			vals[i] = googl
		}
	}
	as := p.Evaluate(vals) // avg = 0: condition fails, update fires
	if as.Ports.Len() != 0 {
		t.Fatalf("low average should not forward: %+v", as)
	}
	if len(as.Updates) == 0 {
		t.Fatalf("update action missing when rest of rule matches: %+v", as)
	}
	// With a high average both forward and update fire.
	for i, f := range p.Fields {
		if f.IsState {
			vals[i] = 80
		}
	}
	as = p.Evaluate(vals)
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1}) || len(as.Updates) == 0 {
		t.Fatalf("high average should forward and update: %+v", as)
	}
	// Different stock: neither.
	for i, f := range p.Fields {
		if f.Name == "add_order.stock" {
			vals[i] = encodeStock(t, sp, "AAPL")
		}
	}
	as = p.Evaluate(vals)
	if as.Ports.Len() != 0 || len(as.Updates) != 0 {
		t.Fatalf("non-matching stock should neither forward nor update: %+v", as)
	}
}

func TestUnknownFieldError(t *testing.T) {
	sp := itchSpec(t)
	if _, err := CompileSource(sp, "volume > 10 : fwd(1)", Options{}); err == nil {
		t.Fatal("unknown field should fail")
	}
}

func TestUnknownAggregateError(t *testing.T) {
	sp := itchSpec(t)
	if _, err := CompileSource(sp, "median(price) > 10 : fwd(1)", Options{}); err == nil {
		t.Fatal("unknown aggregate should fail")
	}
}

// TestObserverSeesEveryAtom: the resolver goes through every atom of a rule
// it rejects, the observer sees each atom's predicate or error, and the
// error returned is the first in atom order.
func TestObserverSeesEveryAtom(t *testing.T) {
	sp := itchSpec(t)
	src := "volume > 1 && price > 2 && median(price) > 3 : fwd(1)"
	var errs []error
	_, err := Observe(context.Background(), sp, Source{Text: src}, Options{}, func(r *Resolved) bool {
		for _, a := range r.Atoms {
			errs = append(errs, a.Err)
		}
		return true
	})
	var first error
	bad := 0
	for _, e := range errs {
		if e != nil {
			first = cmp.Or(first, e)
			bad++
		}
	}
	if len(errs) != 3 || bad != 2 {
		t.Fatalf("atom errors %v, want two of three", errs)
	}
	if _, cerr := CompileSource(sp, src, Options{}); err == nil || cerr == nil || err.Error() != cerr.Error() ||
		err.Error() != "rule 0: "+first.Error() {
		t.Fatalf("kept rule's error %v, compile's %v, want the first atom's", err, cerr)
	}
}

// TestObserverDropLeavesNoTrace: a rule the observer drops takes back its
// payload IDs, the synthetic fields it made and the predicates and action
// list it interned, so the rules after it compile as if it had never been
// there — even one repeating its predicate over a field another rule made
// in between. Rules that do the same thing share one action list.
func TestObserverDropLeavesNoTrace(t *testing.T) {
	sp := itchSpec(t)
	rules, err := lang.ParseRules("avg(price) > 3 && shares < 9 : fwd(1)\nsum(shares) > 2 : fwd(2)\navg(price) > 3 && shares < 9 : fwd(3)\n")
	if err != nil {
		t.Fatal(err)
	}
	pass, err := Observe(context.Background(), sp, Source{Rules: rules}, Options{}, func(r *Resolved) bool { return r.Rule.ID != 0 })
	if err != nil {
		t.Fatal(err)
	}
	got, err := pass.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(sp, rules[1:], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Dump() != want.Dump() || !reflect.DeepEqual(got.Fields, want.Fields) {
		t.Fatalf("after a dropped rule:\n%s\nwant:\n%s", got.Dump(), want.Dump())
	}
	clean, err := Observe(context.Background(), sp, Source{Rules: rules[1:]}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := func(p *Pass) (out []int) {
		for _, c := range p.conjs {
			out = append(out, c.Payload)
		}
		return out
	}
	if g, w := payloads(pass), payloads(clean); !slices.Equal(g, w) {
		t.Fatalf("payloads %v, want %v", g, w)
	}
	if len(pass.res.lists) != len(clean.res.lists) || pass.res.listed != clean.res.listed {
		t.Fatalf("%d action lists interned after a dropped rule, %d without it", len(pass.res.lists), len(clean.res.lists))
	}
	for k, l := range clean.res.lists {
		if m, ok := pass.res.lists[k]; !ok || m.seq != l.seq {
			t.Fatalf("action list %v: %+v after a dropped rule, %+v without it", l.actions, m, l)
		}
	}
	shared, err := Observe(context.Background(), sp, Source{Text: "price > 1 : fwd(4)\nshares > 2 : fwd(4)\n"}, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a := shared.res.actions; len(a) != 2 || &a[0][0] != &a[1][0] {
		t.Errorf("two rules that forward to port 4 keep two action lists")
	}
}

func TestStatsSanity(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, randomITCHRules(rand.New(rand.NewSource(77)), 30), Options{})
	s := p.Stats
	if s.Rules != 30 {
		t.Fatalf("rules = %d", s.Rules)
	}
	if s.TableEntries != p.EntriesTotal() {
		t.Fatalf("stats entries %d != EntriesTotal %d", s.TableEntries, p.EntriesTotal())
	}
	if s.BDDNodes <= 0 || s.States <= 0 || s.TableEntries <= 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if s.SRAMEntries+s.TCAMEntries < s.LeafEntries {
		t.Fatalf("memory accounting inconsistent: %+v", s)
	}
}

func TestCompressionCorrectness(t *testing.T) {
	sp := itchSpec(t)
	// Test stock before price so the price component has one In state per
	// stock, all duplicating the same few boundaries: prime codec
	// territory (the paper's "shares will probably have only a few unique
	// range predicates" case).
	if err := sp.SetFieldOrder("stock", "price"); err != nil {
		t.Fatal(err)
	}
	// Many states sharing few price boundaries: prime codec territory,
	// two price rows for each of 16 symbols, so the price table is large
	// enough to compress.
	var syms []string
	for i := range 16 {
		syms = append(syms, fmt.Sprintf("S%02d", i))
	}
	var b strings.Builder
	for i, sym := range syms {
		fmt.Fprintf(&b, "stock == %s && price > 500 : fwd(%d)\n", sym, i+1)
		fmt.Fprintf(&b, "stock == %s && price < 100 : fwd(%d)\n", sym, i+1)
	}
	rules, err := lang.ParseRules(b.String())
	if err != nil {
		t.Fatal(err)
	}
	pOn, err := Compile(sp, rules, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pOff, err := Compile(sp, rules, Options{DisableCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	compressed := false
	for _, tab := range pOn.Tables {
		if tab.Codec != nil {
			compressed = true
		}
	}
	if !compressed {
		t.Fatal("expected the price table to be compressed")
	}
	r := rand.New(rand.NewSource(9))
	for probe := 0; probe < 300; probe++ {
		stock := encodeStock(t, sp, syms[r.Intn(len(syms))])
		price := r.Uint64() % 1100
		a := pOn.Evaluate(itchValues(pOn, 0, stock, price)).Ports
		b := pOff.Evaluate(itchValues(pOff, 0, stock, price)).Ports
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("compression changed semantics at price=%d: %v vs %v", price, a, b)
		}
	}
	if pOn.Stats.TCAMEntries >= pOff.Stats.TCAMEntries {
		t.Fatalf("compression should reduce TCAM: %d vs %d", pOn.Stats.TCAMEntries, pOff.Stats.TCAMEntries)
	}
}

func TestDropAction(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "stock == AAPL : drop()\nstock == MSFT : fwd(1)", Options{})
	as := p.Evaluate(itchValues(p, 0, encodeStock(t, sp, "AAPL"), 0))
	if !as.Drop || as.Ports.Len() != 0 {
		t.Fatalf("explicit drop wrong: %+v", as)
	}
}

func TestTrueRuleMatchesEverything(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "true : fwd(7)", Options{})
	for _, sym := range testSymbols {
		as := p.Evaluate(itchValues(p, 1, encodeStock(t, sp, sym), 2))
		if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{7}) {
			t.Fatalf("catch-all rule missed %s: %+v", sym, as)
		}
	}
}

func TestProgramDumpIsRenderable(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "stock == AAPL && shares < 60 : fwd(3)", Options{})
	d := p.Dump()
	if !strings.Contains(d, "leaf table") || !strings.Contains(d, "stock") {
		t.Fatalf("dump incomplete:\n%s", d)
	}
}

// TestActionSetKeyInjective: Key tells action sets apart exactly when they
// act apart — which the decimal rendering it replaced, with its separators
// taken out, would not.
func TestActionSetKeyInjective(t *testing.T) {
	upd := func(v, key, fn string, args ...string) lang.Action { return lang.KeyedStateUpdate(v, key, fn, args...) }
	distinct := []ActionSet{
		{Ports: newPortSet(1, 23)},
		{Ports: newPortSet(12, 3)},
		{Ports: newPortSet(1, 2, 3)},
		{Ports: newPortSet(123)},
		{Ports: newPortSet(0)},
		{Drop: true},
		{Drop: true, Updates: []lang.Action{upd("v", "", "count")}},
		{Updates: []lang.Action{upd("v", "", "count")}},
		{Updates: []lang.Action{upd("v", "k", "count")}},
		{Updates: []lang.Action{upd("vk", "", "count")}},
		{Updates: []lang.Action{upd("v", "", "add", "a", "b")}},
		{Updates: []lang.Action{upd("v", "", "add", "ab")}},
		{Updates: []lang.Action{upd("v", "", "count"), upd("w", "", "count")}},
		{Updates: []lang.Action{upd("w", "", "count"), upd("v", "", "count")}},
		{Ports: newPortSet(1), Updates: []lang.Action{upd("v", "", "count")}},
	}
	seen := map[string]int{}
	for i, as := range distinct {
		if j, dup := seen[as.Key()]; dup {
			t.Errorf("%+v and %+v share key %q", distinct[j], as, as.Key())
		}
		seen[as.Key()] = i
	}
	// What does not change behaviour does not change the key: the group
	// number, a drop beside a forward, or leaving the drop of "forward
	// nowhere, update nothing" unsaid.
	same := [][2]ActionSet{
		{{Ports: newPortSet(4, 5), Group: 7}, {Ports: newPortSet(4, 5), Group: -1}},
		{{Ports: newPortSet(4), Drop: true}, {Ports: newPortSet(4)}},
		{{Drop: true}, {}},
	}
	for _, p := range same {
		if p[0].Key() != p[1].Key() {
			t.Errorf("%+v and %+v have different keys", p[0], p[1])
		}
	}
	// A compiled set carries the sum it was merged under, which is the sum
	// of its content.
	rules := [][]lang.Action{{lang.Fwd(1, 23)}, {lang.Fwd(12, 3), lang.Drop()}}
	a, b := mergeActions(rules, []int{0}), mergeActions(rules, []int{1})
	if a.sum == (sum128{}) || a.Key() == b.Key() || a.Key() != (ActionSet{Ports: newPortSet(1, 23)}).Key() {
		t.Errorf("merged keys %q, %q", a.Key(), b.Key())
	}
	if want := (ActionSet{Ports: newPortSet(23, 1)}).Sum(); a.Sum() != want || b.Sum() == want {
		t.Errorf("merged sums %x, %x; fwd(1,23) sums to %x", a.Sum(), b.Sum(), want)
	}
	// Distinct sets have distinct sums, but for the order of their updates:
	// a sum is of the set, and a compiled set lists its updates in one order.
	for i, as := range distinct {
		for j, bs := range distinct[:i] {
			if reordered := i == 13 && j == 12; (as.Sum() == bs.Sum()) != reordered {
				t.Errorf("%+v and %+v: sums equal %v", as, bs, !reordered)
			}
		}
	}
	for _, p := range same {
		if p[0].Sum() != p[1].Sum() {
			t.Errorf("%+v and %+v have different sums", p[0], p[1])
		}
	}
}

// TestMergeSparsePorts: a class arena counts ports by the order it met them,
// not by number, and lists a sparse set, so a port a million up costs no
// megabyte; a dense set is a bitmap. Either way the ports of a class come
// out ordered and deduplicated, and a set held again, by other rules in
// another order, is the class it was.
func TestMergeSparsePorts(t *testing.T) {
	rules := [][]lang.Action{
		{lang.Fwd(1048576)}, {lang.Fwd(1)}, {lang.Fwd(1048576, 1)},
		{lang.Fwd(9, 3)}, {lang.Fwd(3, 200, 9, 64, 130)}, {lang.Fwd(200, 130), lang.Fwd(3, 9, 64)},
	}
	ca := newClassArena(0)
	conjs := make([]bdd.Conj, len(rules))
	for p := range conjs {
		conjs[p].Payload = p
	}
	ca.bind(rules, conjs)
	class := func(payloads ...int) (int, ActionSet) {
		for _, p := range payloads {
			ca.Add(p)
		}
		id, _ := ca.Class()
		for _, p := range payloads {
			ca.Remove(p)
		}
		return id, ca.set(id)
	}
	sparse, as := class(0, 1, 2)
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1, 1048576}) {
		t.Errorf("sparse ports merged to %v", as.Ports)
	}
	if kept := 4*(cap(ca.count)+cap(ca.at)+cap(ca.held)+cap(ca.list)) + 8*cap(as.Ports.w); kept > 1024 {
		t.Errorf("counting two ports kept %d bytes", kept)
	}
	if as.Ports.base != listed || len(as.Ports.w) != 1 {
		t.Errorf("ports 1 and 1048576 are %+v, want two listed in one word", as.Ports)
	}
	dense, as := class(4, 3)
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{3, 9, 64, 130, 200}) {
		t.Errorf("dense ports merged to %v", as.Ports)
	}
	if as.Ports.base != 3 || len(as.Ports.w) != 4 {
		t.Errorf("five ports within four words are %+v, want a bitmap from 3", as.Ports)
	}
	if as.Key() != (ActionSet{Ports: newPortSet(3, 9, 64, 130, 200)}).Key() || as.Sum() != (ActionSet{Ports: newPortSet(200, 3, 9, 64, 130)}).Sum() {
		t.Errorf("merged set %+v: key %q, sum %x", as, as.Key(), as.Sum())
	}
	if again, _ := class(5); again != dense {
		t.Errorf("fwd(200, 130); fwd(3, 9, 64) is class %d, fwd(3, 200, 9, 64, 130) class %d", again, dense)
	}
	if again, _ := class(2, 1); again != sparse || len(ca.held) != 0 {
		t.Errorf("ports 1 and 1048576 again are class %d, first %d; %d atoms still held", again, sparse, len(ca.held))
	}
}
