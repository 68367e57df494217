package itch

import (
	"bytes"
	"testing"
	"testing/quick"

	"camus/internal/compiler"
	"camus/internal/spec"
)

func TestAddOrderRoundTrip(t *testing.T) {
	m := AddOrder{
		StockLocate:    7,
		TrackingNumber: 9,
		Timestamp:      0x0000_1234_5678_9abc & ((1 << 48) - 1),
		OrderRef:       0xdeadbeefcafef00d,
		Side:           Buy,
		Shares:         300,
		Price:          PriceToFixed(182.55),
	}
	m.SetStock("GOOGL")
	buf := m.Bytes()
	if len(buf) != AddOrderLen {
		t.Fatalf("wire length = %d", len(buf))
	}
	var d AddOrder
	if err := d.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if d != m {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", d, m)
	}
	if d.StockSymbol() != "GOOGL" {
		t.Fatalf("symbol = %q", d.StockSymbol())
	}
	if d.Price != 1825500 {
		t.Fatalf("price = %v", d.Price)
	}
}

func TestAddOrderDecodeErrors(t *testing.T) {
	var d AddOrder
	if err := d.DecodeFromBytes(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	bad := make([]byte, AddOrderLen)
	bad[0] = 'X'
	if err := d.DecodeFromBytes(bad); err == nil {
		t.Fatal("wrong type should fail")
	}
}

func TestStockValueMatchesSpecEncoding(t *testing.T) {
	// The pipeline matches stock == GOOGL by encoding the symbol via the
	// spec; the wire extractor must produce the identical uint64.
	sp := spec.MustParse(`
header_type itch_add_order_t { fields { shares: 32; stock: 64; price: 32; } }
header itch_add_order_t add_order;
@query_field_exact(add_order.stock)
`)
	q, err := sp.LookupField("stock")
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.EncodeSymbol(q, "GOOGL")
	if err != nil {
		t.Fatal(err)
	}
	var m AddOrder
	m.SetStock("GOOGL")
	if got := m.StockValue(); got != want {
		t.Fatalf("wire encoding %#x != spec encoding %#x", got, want)
	}
}

func TestUint48RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= (1 << 48) - 1
		var b [6]byte
		putUint48(b[:], v)
		return uint48(b[:]) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// otherMsg builds an ITCH message the switch does not parse: the type
// byte, zero-filled to its wire length. A Mold datagram frames it by its
// length prefix, and the decoders skip it on the type byte alone.
func otherMsg(typ byte, n int) []byte {
	b := make([]byte, n)
	b[0] = typ
	return b
}

// systemEvent is an ITCH 5.0 system-event message ('S', 12 bytes).
func systemEvent() []byte { return otherMsg('S', 12) }

func TestMoldPacketRoundTrip(t *testing.T) {
	var p MoldPacket
	p.Header.SetSession("SESS01")
	p.Header.Sequence = 1000
	var a AddOrder
	a.SetStock("AAPL")
	a.Shares = 100
	a.Price = PriceToFixed(190)
	p.Append(a.Bytes())
	p.Append(systemEvent())
	var b AddOrder
	b.SetStock("MSFT")
	b.Shares = 50
	b.Price = PriceToFixed(410)
	p.Append(b.Bytes())

	wire := p.Bytes()
	if len(wire) != p.WireLen() {
		t.Fatalf("wire len %d != WireLen %d", len(wire), p.WireLen())
	}

	var d MoldPacket
	if err := d.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if d.Header.SessionString() != "SESS01" || d.Header.Sequence != 1000 || d.Header.Count != 3 {
		t.Fatalf("header: %+v", d.Header)
	}
	if len(d.Messages) != 3 || !bytes.Equal(d.Messages[0], a.Bytes()) {
		t.Fatalf("messages: %d", len(d.Messages))
	}

	// ForEachAddOrder skips the system event.
	var syms []string
	if err := ForEachAddOrder(wire, func(m *AddOrder) {
		syms = append(syms, m.StockSymbol())
	}); err != nil {
		t.Fatal(err)
	}
	if len(syms) != 2 || syms[0] != "AAPL" || syms[1] != "MSFT" {
		t.Fatalf("add orders seen: %v", syms)
	}
}

func TestMoldDecodeTruncated(t *testing.T) {
	var p MoldPacket
	p.Header.SetSession("S")
	var a AddOrder
	a.SetStock("AAPL")
	p.Append(a.Bytes())
	wire := p.Bytes()
	var d MoldPacket
	for _, cut := range []int{5, MoldHeaderLen + 1, len(wire) - 1} {
		if err := d.Decode(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	if err := ForEachAddOrder(wire[:len(wire)-1], func(*AddOrder) {}); err == nil {
		t.Fatal("ForEachAddOrder must detect truncation")
	}
}

// TestMoldMixedMessageTypes checks that a datagram carrying eight ITCH
// 5.0 message types, each at its wire length, decodes and that the
// add-order filter visits only the add-order.
func TestMoldMixedMessageTypes(t *testing.T) {
	var mp MoldPacket
	mp.Header.SetSession("MIX")
	var a AddOrder
	a.SetStock("GOOGL")
	mp.Append(systemEvent())
	mp.Append(otherMsg('R', 39)) // stock directory
	mp.Append(a.Bytes())
	mp.Append(otherMsg('E', 31)) // order executed
	mp.Append(otherMsg('X', 23)) // order cancel
	mp.Append(otherMsg('U', 35)) // order replace
	mp.Append(otherMsg('D', 19)) // order delete
	mp.Append(otherMsg('P', 44)) // trade
	wire := mp.Bytes()

	var decoded MoldPacket
	if err := decoded.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Messages) != 8 {
		t.Fatalf("decoded %d messages", len(decoded.Messages))
	}
	adds := 0
	if err := ForEachAddOrder(wire, func(m *AddOrder) {
		adds++
		if m.StockSymbol() != "GOOGL" {
			t.Fatalf("visited %q", m.StockSymbol())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if adds != 1 {
		t.Fatalf("add-order filter saw %d, want 1", adds)
	}
}

func TestExtractor(t *testing.T) {
	sp := spec.MustParse(`
header_type itch_add_order_t { fields { shares: 32; stock: 64; price: 32; } }
header itch_add_order_t add_order;
@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
`)
	prog, err := compiler.CompileSource(sp, "stock == GOOGL && price > 500000 : fwd(1)", compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExtractor(prog)
	if err != nil {
		t.Fatal(err)
	}
	var m AddOrder
	m.SetStock("GOOGL")
	m.Shares = 100
	m.Price = PriceToFixed(75) // 750000 fixed
	vals := ex.Values(&m, nil)
	as := prog.Evaluate(vals)
	if as.Ports.Len() != 1 || !as.Ports.Contains(1) {
		t.Fatalf("GOOGL@75 should forward: %+v (vals=%v)", as, vals)
	}
	m.Price = PriceToFixed(25)
	vals = ex.Values(&m, vals)
	if as := prog.Evaluate(vals); as.Ports.Len() != 0 {
		t.Fatalf("GOOGL@25 should not forward: %+v", as)
	}
	// Buffer reuse: same backing array.
	vals2 := ex.Values(&m, vals)
	if &vals2[0] != &vals[0] {
		t.Fatal("extractor should reuse the provided buffer")
	}
}

func TestExtractorRejectsUnknownField(t *testing.T) {
	sp := spec.MustParse(`
header_type weird_t { fields { volume: 32; } }
header weird_t w;
@query_field(w.volume)
`)
	prog, err := compiler.CompileSource(sp, "volume > 10 : fwd(1)", compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewExtractor(prog); err == nil {
		t.Fatal("unknown field binding should fail")
	}
}
