package itch

import (
	"bytes"
	"testing"
)

// buildShardPacket frames a Mold datagram with a system event followed by
// two add-orders carrying distinct locate codes.
func buildShardPacket(t *testing.T) (MoldPacket, AddOrder, AddOrder) {
	t.Helper()
	var p MoldPacket
	p.Header.SetSession("SHARD01")
	p.Header.Sequence = 77
	p.Append(systemEvent())
	var a AddOrder
	a.StockLocate = 0x1234
	a.SetStock("AAPL")
	a.Shares = 10
	a.Price = PriceToFixed(190)
	p.Append(a.Bytes())
	var b AddOrder
	b.StockLocate = 0x00FF
	b.SetStock("MSFT")
	b.Shares = 20
	b.Price = PriceToFixed(410)
	p.Append(b.Bytes())
	return p, a, b
}

func TestAppendToReusesBuffer(t *testing.T) {
	p, _, _ := buildShardPacket(t)
	want := p.Bytes()
	buf := make([]byte, 0, 4096)
	got := p.AppendTo(buf)
	if !bytes.Equal(got, want) {
		t.Fatal("AppendTo wire bytes differ from Bytes")
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendTo did not reuse the provided buffer capacity")
	}
	// Serializing into a recycled buffer must not allocate.
	if allocs := testing.AllocsPerRun(200, func() {
		buf = p.AppendTo(buf)
	}); allocs != 0 {
		t.Fatalf("AppendTo allocates %v per op with a warm buffer", allocs)
	}
	// Too-small buffers grow transparently.
	if got := p.AppendTo(make([]byte, 0, 3)); !bytes.Equal(got, want) {
		t.Fatal("AppendTo with small buffer differs")
	}
}

func TestDecodeAddOrdersRaw(t *testing.T) {
	p, a, b := buildShardPacket(t)
	wire := p.Bytes()
	var raws [][]byte
	var locs []uint16
	var scratch AddOrder
	if err := DecodeAddOrders(wire, &scratch, func(m *AddOrder, raw []byte) {
		raws = append(raws, raw)
		locs = append(locs, m.StockLocate)
	}); err != nil {
		t.Fatal(err)
	}
	if len(raws) != 2 || locs[0] != a.StockLocate || locs[1] != b.StockLocate {
		t.Fatalf("raw messages seen: %d, locates %v", len(raws), locs)
	}
	if !bytes.Equal(raws[0], a.Bytes()) || !bytes.Equal(raws[1], b.Bytes()) {
		t.Fatal("raw bytes differ from serialized messages")
	}
	// Raw slices must alias the input datagram (zero-copy egress).
	if &raws[0][0] != &wire[MoldHeaderLen+2+len(systemEvent())+2] {
		t.Fatal("raw message does not alias the datagram buffer")
	}
}

func TestFirstAddOrderLocate(t *testing.T) {
	p, a, _ := buildShardPacket(t)
	wire := p.Bytes()
	loc, ok := FirstAddOrderLocate(wire)
	if !ok || loc != a.StockLocate {
		t.Fatalf("FirstAddOrderLocate = %#x, %v; want %#x, true", loc, ok, a.StockLocate)
	}
	// A datagram with no add-orders has no shard key.
	var hb MoldPacket
	hb.Header.SetSession("SHARD01")
	if _, ok := FirstAddOrderLocate(hb.Bytes()); ok {
		t.Fatal("heartbeat should have no shard key")
	}
	var se MoldPacket
	se.Header.SetSession("SHARD01")
	se.Append(systemEvent())
	if _, ok := FirstAddOrderLocate(se.Bytes()); ok {
		t.Fatal("system-event-only datagram should have no shard key")
	}
	// End-of-session and truncated datagrams are handled without panics.
	if _, ok := FirstAddOrderLocate(EndOfSessionBytes(hb.Header.Session, 5)); ok {
		t.Fatal("end-of-session should have no shard key")
	}
	// Truncation before the first add-order yields no key; truncation
	// after it still does (the scan stops at the first hit).
	if _, ok := FirstAddOrderLocate(wire[:MoldHeaderLen+1]); ok {
		t.Fatal("truncated datagram should have no shard key")
	}
	if got, ok := FirstAddOrderLocate(wire[:len(wire)-3]); !ok || got != a.StockLocate {
		t.Fatal("tail truncation must not hide the first add-order's key")
	}
}
