package camus

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"camus/internal/itch"
)

const testSpec = `
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

func TestPublicAPICompileAndEvaluate(t *testing.T) {
	sp, err := ParseSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	rules, err := ParseSubscriptions("stock == GOOGL && price > 50 : fwd(1)\nstock == AAPL : fwd(2,3)\n")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(sp, rules, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Stats.Rules != 2 || prog.Stats.MulticastGroups != 1 {
		t.Fatalf("stats: %+v", prog.Stats)
	}
	p4 := GenerateP4(prog)
	if !strings.Contains(p4, "control ingress") {
		t.Fatal("P4 generation broken")
	}
	entries := GenerateEntries(prog)
	if !strings.Contains(entries, "camus_leaf") {
		t.Fatal("entry generation broken")
	}
}

func TestPubSubEndToEnd(t *testing.T) {
	sp := MustParseSpec(testSpec)
	ps, err := NewPubSub(sp, PubSubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty subscription set: everything drops.
	var order AddOrder
	order.SetStock("GOOGL")
	order.Price = 100
	if res := ps.ProcessOrder(&order, 0); !res.Dropped {
		t.Fatalf("no subscriptions should drop: %+v", res)
	}

	delta, err := ps.SetSubscriptions(`
stock == GOOGL : fwd(1)
stock == MSFT : fwd(2)
stock == GOOGL && shares > 1000 : fwd(3)
`)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Entries.Added == 0 {
		t.Fatalf("install should add entries: %s", delta)
	}

	// Build a Mold datagram with three orders.
	var mp MoldPacket
	mp.Header.SetSession("TEST")
	mk := func(sym string, shares uint32) []byte {
		var o AddOrder
		o.SetStock(sym)
		o.Shares = shares
		return o.Bytes()
	}
	mp.Append(mk("GOOGL", 100))
	mp.Append(mk("ORCL", 100))
	mp.Append(mk("GOOGL", 2000))

	deliveries, err := ps.ProcessDatagram(mp.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveries) != 2 {
		t.Fatalf("want 2 deliveries, got %d: %+v", len(deliveries), deliveries)
	}
	if !reflect.DeepEqual(deliveries[0].Ports.AppendTo(nil), []int{1}) {
		t.Fatalf("first delivery ports: %v", deliveries[0].Ports)
	}
	// Large GOOGL order matches both rules: multicast to 1 and 3.
	if !reflect.DeepEqual(deliveries[1].Ports.AppendTo(nil), []int{1, 3}) || deliveries[1].Group < 0 {
		t.Fatalf("second delivery: %+v", deliveries[1])
	}

	// Incremental update: the stock rows under the share bands the new rule
	// leaves alone are reused.
	delta, err = ps.SetSubscriptions(`
stock == GOOGL : fwd(1)
stock == MSFT : fwd(2)
stock == GOOGL && shares > 1000 : fwd(3)
stock == IBM && shares > 5000 : fwd(4)
`)
	if err != nil {
		t.Fatal(err)
	}
	if delta.Entries.Reused == 0 {
		t.Fatalf("update should reuse entries: %s", delta)
	}
	var ibm AddOrder
	ibm.SetStock("IBM")
	ibm.Shares = 6000
	res := ps.ProcessOrder(&ibm, 0)
	if res.Dropped || !reflect.DeepEqual(res.Ports.AppendTo(nil), []int{4}) {
		t.Fatalf("IBM after update: %+v", res)
	}
}

func TestPubSubCompileErrorLeavesOldProgram(t *testing.T) {
	sp := MustParseSpec(testSpec)
	ps, err := NewPubSub(sp, PubSubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SetSubscriptions("stock == GOOGL : fwd(1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SetSubscriptions("bogusfield == 1 : fwd(1)"); err == nil {
		t.Fatal("bad subscription set should fail")
	}
	var order AddOrder
	order.SetStock("GOOGL")
	if res := ps.ProcessOrder(&order, 0); res.Dropped {
		t.Fatalf("old program should survive failed update: %+v", res)
	}
}

func TestStatefulSubscriptionViaPublicAPI(t *testing.T) {
	sp := MustParseSpec(testSpec)
	ps, err := NewPubSub(sp, PubSubConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SetSubscriptions("stock == GOOGL && avg(price) > 50 : fwd(1)"); err != nil {
		t.Fatal(err)
	}
	var o itch.AddOrder
	o.SetStock("GOOGL")
	o.Price = 100
	if res := ps.ProcessOrder(&o, 0); !res.Dropped {
		t.Fatal("first message should drop (average not yet primed)")
	}
	if res := ps.ProcessOrder(&o, 1000); res.Dropped {
		t.Fatal("second message should forward (average now 100)")
	}
}

// TestAnalysisGateViaPublicAPI: the facade's gate refuses a rule set the
// policy rejects with an *AnalysisRejection, and compiles one it admits.
func TestAnalysisGateViaPublicAPI(t *testing.T) {
	sp := MustParseSpec(testSpec)
	gate := NewAnalysisGate(sp, AnalysisOptions{}, AnalysisStrict)
	_, rep, err := gate.AdmitSource("stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(1)\n", CompileOptions{})
	var rej *AnalysisRejection
	if !errors.As(err, &rej) || rep == nil || len(rep.Diagnostics) == 0 {
		t.Fatalf("duplicate rules: err = %v, report = %v; want an *AnalysisRejection with diagnostics", err, rep)
	}
	prog, _, err := gate.AdmitSource("stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)\n", CompileOptions{})
	if err != nil || prog.Stats.Rules != 2 {
		t.Fatalf("clean rules: program %v, err %v", prog, err)
	}
}
