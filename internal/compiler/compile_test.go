package compiler

import (
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
	// Rules shaped like Figure 3: conditions on shares then stock.
	rules := `
shares < 60 && stock == AAPL : fwd(3)
shares < 60 && stock == AAPL : fwd(1); fwd(2)
shares > 100 && stock == MSFT : fwd(1)
`
	p := compileSrc(t, sp, rules, Options{})
	aapl := encodeStock(t, sp, "AAPL")
	msft := encodeStock(t, sp, "MSFT")

	// AAPL with few shares matches rules 1 and 2: merged fwd(1,2,3).
	as := p.Evaluate(itchValues(p, 59, aapl, 0))
	if !reflect.DeepEqual(as.Ports, []int{1, 2, 3}) {
		t.Fatalf("AAPL@59 ports = %v, want [1 2 3]", as.Ports)
	}
	if as.Group < 0 {
		t.Fatal("multi-port forward should have a multicast group")
	}
	// MSFT with many shares: fwd(1) only.
	as = p.Evaluate(itchValues(p, 101, msft, 0))
	if !reflect.DeepEqual(as.Ports, []int{1}) {
		t.Fatalf("MSFT@101 ports = %v, want [1]", as.Ports)
	}
	if as.Group != -1 {
		t.Fatal("unicast should have no group")
	}
	// No match: drop.
	as = p.Evaluate(itchValues(p, 80, aapl, 0))
	if !as.Drop || len(as.Ports) != 0 {
		t.Fatalf("AAPL@80 should drop, got %+v", as)
	}

	// The shares table carries range entries; the stock table is exact
	// with per-state wildcards (the '*' rows of Fig. 4).
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
				got := p.Evaluate(itchValues(p, shares, stock, price)).Ports
				if !reflect.DeepEqual(got, want) {
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
	if len(as.Ports) != 0 {
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
	if !reflect.DeepEqual(as.Ports, []int{1}) || len(as.Updates) == 0 {
		t.Fatalf("high average should forward and update: %+v", as)
	}
	// Different stock: neither.
	for i, f := range p.Fields {
		if f.Name == "add_order.stock" {
			vals[i] = encodeStock(t, sp, "AAPL")
		}
	}
	as = p.Evaluate(vals)
	if len(as.Ports) != 0 || len(as.Updates) != 0 {
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
	// Many states sharing few price boundaries: prime codec territory.
	var b strings.Builder
	for i, sym := range testSymbols {
		fmt.Fprintf(&b, "stock == %s && price > 500 : fwd(%d)\n", sym, i+1)
		fmt.Fprintf(&b, "stock == %s && price < 100 : fwd(%d)\n", sym, i+1)
	}
	rules, err := lang.ParseRules(b.String())
	if err != nil {
		t.Fatal(err)
	}
	pOn, err := Compile(sp, rules, Options{CompressionMinEntries: 1})
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
		stock := encodeStock(t, sp, testSymbols[r.Intn(len(testSymbols))])
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
	if !as.Drop || len(as.Ports) != 0 {
		t.Fatalf("explicit drop wrong: %+v", as)
	}
}

func TestTrueRuleMatchesEverything(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "true : fwd(7)", Options{})
	for _, sym := range testSymbols {
		as := p.Evaluate(itchValues(p, 1, encodeStock(t, sp, sym), 2))
		if !reflect.DeepEqual(as.Ports, []int{7}) {
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
		{Ports: []int{1, 23}},
		{Ports: []int{12, 3}},
		{Ports: []int{1, 2, 3}},
		{Ports: []int{123}},
		{Ports: []int{0}},
		{Drop: true},
		{Drop: true, Updates: []lang.Action{upd("v", "", "count")}},
		{Updates: []lang.Action{upd("v", "", "count")}},
		{Updates: []lang.Action{upd("v", "k", "count")}},
		{Updates: []lang.Action{upd("vk", "", "count")}},
		{Updates: []lang.Action{upd("v", "", "add", "a", "b")}},
		{Updates: []lang.Action{upd("v", "", "add", "ab")}},
		{Updates: []lang.Action{upd("v", "", "count"), upd("w", "", "count")}},
		{Updates: []lang.Action{upd("w", "", "count"), upd("v", "", "count")}},
		{Ports: []int{1}, Updates: []lang.Action{upd("v", "", "count")}},
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
		{{Ports: []int{4, 5}, Group: 7}, {Ports: []int{4, 5}, Group: -1}},
		{{Ports: []int{4}, Drop: true}, {Ports: []int{4}}},
		{{Drop: true}, {}},
	}
	for _, p := range same {
		if p[0].Key() != p[1].Key() {
			t.Errorf("%+v and %+v have different keys", p[0], p[1])
		}
	}
	// A compiled set carries the key it was merged with.
	rules := [][]lang.Action{{lang.Fwd(1, 23)}, {lang.Fwd(12, 3), lang.Drop()}}
	a, b := mergeActions(rules, []int{0}), mergeActions(rules, []int{1})
	if a.key == "" || a.Key() == b.Key() || a.Key() != (ActionSet{Ports: []int{1, 23}}).Key() {
		t.Errorf("merged keys %q, %q", a.Key(), b.Key())
	}
}

// TestMergeSparsePorts: a class arena counts ports by the order it met them,
// not by number, and sorts a sparse set by comparison, so a port a million
// up costs no megabyte; a dense set goes through a bitmap, which it leaves
// clear. Either way the ports of a class come out ordered and deduplicated,
// and a set held again, by other rules in another order, is the class it
// was.
func TestMergeSparsePorts(t *testing.T) {
	rules := [][]lang.Action{
		{lang.Fwd(1048576)}, {lang.Fwd(1)}, {lang.Fwd(1048576, 1)},
		{lang.Fwd(9, 3)}, {lang.Fwd(3, 200, 9, 64, 130)}, {lang.Fwd(200, 130), lang.Fwd(3, 9, 64)},
	}
	ca := newClassArena()
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
		return id, ca.sets[id]
	}
	sparse, as := class(0, 1, 2)
	if !reflect.DeepEqual(as.Ports, []int{1, 1048576}) {
		t.Errorf("sparse ports merged to %v", as.Ports)
	}
	if kept := 4*(cap(ca.count)+cap(ca.at)+cap(ca.held)) + 8*cap(ca.seen); kept > 1024 {
		t.Errorf("counting two ports kept %d bytes", kept)
	}
	dense, as := class(4, 3)
	if !reflect.DeepEqual(as.Ports, []int{3, 9, 64, 130, 200}) {
		t.Errorf("dense ports merged to %v", as.Ports)
	}
	if len(ca.seen) == 0 || slices.ContainsFunc(ca.seen, func(w uint64) bool { return w != 0 }) {
		t.Errorf("five ports within four words left the bitmap at %x", ca.seen)
	}
	if as.Key() != (ActionSet{Ports: []int{3, 9, 64, 130, 200}}).Key() || as.key != as.Key() {
		t.Errorf("merged set %+v carries key %q", as, as.key)
	}
	if again, _ := class(5); again != dense {
		t.Errorf("fwd(200, 130); fwd(3, 9, 64) is class %d, fwd(3, 200, 9, 64, 130) class %d", again, dense)
	}
	if again, _ := class(2, 1); again != sparse || len(ca.held) != 0 {
		t.Errorf("ports 1 and 1048576 again are class %d, first %d; %d atoms still held", again, sparse, len(ca.held))
	}
}
