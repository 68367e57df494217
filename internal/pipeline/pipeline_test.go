package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"camus/internal/compiler"
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

var testSymbols = []string{"AAPL", "MSFT", "GOOGL", "ORCL", "IBM", "AMZN", "NVDA", "TSLA"}

func buildSwitch(t testing.TB, rules string) (*Switch, *compiler.Program, *spec.Spec) {
	t.Helper()
	sp, err := spec.Parse(itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileSource(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New(prog, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sw, prog, sp
}

func stockVal(t testing.TB, sp *spec.Spec, sym string) uint64 {
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

func packetValues(prog *compiler.Program, shares, stock, price uint64) []uint64 {
	vals := make([]uint64, len(prog.Fields))
	for i, f := range prog.Fields {
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

func TestSwitchMatchesProgramEvaluate(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var b strings.Builder
	for i := 0; i < 50; i++ {
		sym := testSymbols[r.Intn(len(testSymbols))]
		fmt.Fprintf(&b, "stock == %s && price > %d : fwd(%d)\n", sym, r.Intn(1000), 1+r.Intn(16))
	}
	sw, prog, sp := buildSwitch(t, b.String())
	for probe := 0; probe < 2000; probe++ {
		stock := stockVal(t, sp, testSymbols[r.Intn(len(testSymbols))])
		shares := r.Uint64() % 500
		price := r.Uint64() % 1100
		vals := packetValues(prog, shares, stock, price)
		want := prog.Evaluate(append([]uint64(nil), vals...))
		got := sw.Process(vals, 0)
		if got.Dropped != (len(want.Ports) == 0) {
			t.Fatalf("drop mismatch: %+v vs %+v", got, want)
		}
		if !got.Dropped && !reflect.DeepEqual(got.Ports, want.Ports) {
			t.Fatalf("ports mismatch: %v vs %v", got.Ports, want.Ports)
		}
	}
}

func TestMulticastResult(t *testing.T) {
	sw, prog, sp := buildSwitch(t, "stock == GOOGL : fwd(1,2,3)")
	res := sw.Process(packetValues(prog, 0, stockVal(t, sp, "GOOGL"), 0), 0)
	if res.Dropped || !reflect.DeepEqual(res.Ports, []int{1, 2, 3}) {
		t.Fatalf("multicast result wrong: %+v", res)
	}
	if res.Group < 0 {
		t.Fatal("expected a multicast group")
	}
	ports, err := sw.GroupPorts(res.Group)
	if err != nil || !reflect.DeepEqual(ports, []int{1, 2, 3}) {
		t.Fatalf("GroupPorts: %v %v", ports, err)
	}
	if _, err := sw.GroupPorts(99); err == nil {
		t.Fatal("bogus group should error")
	}
}

func TestStatefulAggregateWindow(t *testing.T) {
	sw, prog, sp := buildSwitch(t, "stock == GOOGL && avg(price) > 50 : fwd(1)")
	googl := stockVal(t, sp, "GOOGL")
	now := time.Duration(0)

	// First packet: average is 0 (no samples yet) -> dropped, but the
	// update fires because the rest of the rule matches.
	res := sw.Process(packetValues(prog, 0, googl, 100), now)
	if !res.Dropped {
		t.Fatalf("first packet should be dropped (avg=0): %+v", res)
	}
	// Second packet: avg is now 100 > 50 -> forwarded.
	now += time.Microsecond
	res = sw.Process(packetValues(prog, 0, googl, 100), now)
	if res.Dropped || !reflect.DeepEqual(res.Ports, []int{1}) {
		t.Fatalf("second packet should forward: %+v", res)
	}
	// Non-matching stock must not update state.
	now += time.Microsecond
	sw.Process(packetValues(prog, 0, stockVal(t, sp, "AAPL"), 1), now)

	// After the tumbling window expires the average resets to 0.
	now += AggWindow + time.Microsecond
	res = sw.Process(packetValues(prog, 0, googl, 100), now)
	if !res.Dropped {
		t.Fatalf("after window reset the first packet should drop: %+v", res)
	}
}

func TestResourceRejection(t *testing.T) {
	sp, err := spec.Parse(itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileSource(sp, "stock == GOOGL : fwd(1)", compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tiny := DefaultConfig()
	tiny.Stages = 1 // 3 field tables + leaf cannot fit one stage
	if _, err := New(prog, tiny); err == nil {
		t.Fatal("program should not fit a 1-stage device")
	}
}

func TestPlanReport(t *testing.T) {
	sw, prog, _ := buildSwitch(t, "stock == GOOGL && price > 50 : fwd(1)")
	rep := Plan(prog, sw.Config())
	if !rep.Fits() {
		t.Fatalf("tiny program should fit: %s", rep)
	}
	if rep.StagesUsed < 4 { // shares, price, stock, leaf
		t.Fatalf("stages used = %d, want >= 4", rep.StagesUsed)
	}
	if !strings.Contains(rep.String(), "leaf") {
		t.Fatalf("report missing leaf: %s", rep)
	}
}

func TestLatencyIndependentOfRules(t *testing.T) {
	small, _, _ := buildSwitch(t, "stock == GOOGL : fwd(1)")
	var b strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&b, "stock == S%03d && price > %d : fwd(%d)\n", i%100, i, 1+i%16)
	}
	big, _, _ := buildSwitch(t, b.String())
	if small.Latency() != big.Latency() {
		t.Fatalf("pipeline latency must not depend on rule count: %v vs %v", small.Latency(), big.Latency())
	}
}

func TestDefaultConfigBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.BandwidthTbps(); got != 3.2 {
		t.Fatalf("32x100G = %v Tbps, want 3.2", got)
	}
	cfg.Ports = 64
	if got := cfg.BandwidthTbps(); got != 6.4 {
		t.Fatalf("64x100G = %v Tbps, want 6.4", got)
	}
}

func TestProcessCountsPackets(t *testing.T) {
	sw, prog, sp := buildSwitch(t, "stock == GOOGL : fwd(1)")
	for i := 0; i < 10; i++ {
		sw.Process(packetValues(prog, 0, stockVal(t, sp, "GOOGL"), 0), 0)
	}
	if sw.PacketsProcessed() != 10 {
		t.Fatalf("packets = %d", sw.PacketsProcessed())
	}
}
