package itch

import "testing"

// FuzzMoldDecode checks the Mold/ITCH decoders never panic or read out of
// bounds on arbitrary datagrams, and that the shard key agrees with the
// decoder.
func FuzzMoldDecode(f *testing.F) {
	var good MoldPacket
	good.Header.SetSession("SEED")
	var a AddOrder
	a.SetStock("GOOGL")
	a.Shares = 100
	good.Append(a.Bytes())
	good.Append(systemEvent())
	f.Add(good.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, MoldHeaderLen))
	f.Add([]byte("garbage that is long enough to look like a header...."))
	f.Add(HeartbeatBytes(good.Header.Session, 42))
	f.Add(EndOfSessionBytes(good.Header.Session, 99))

	f.Fuzz(func(t *testing.T, data []byte) {
		var mp MoldPacket
		if err := mp.Decode(data); err == nil {
			if mp.Header.IsEndOfSession() && len(mp.Messages) != 0 {
				t.Fatalf("end-of-session packet decoded %d messages", len(mp.Messages))
			}
			// Whatever decoded must re-serialize to at least the same
			// message count.
			re := mp.Bytes()
			var mp2 MoldPacket
			if err := mp2.Decode(re); err != nil {
				t.Fatalf("re-decode of re-serialized packet failed: %v", err)
			}
			if len(mp2.Messages) != len(mp.Messages) {
				t.Fatalf("message count changed: %d -> %d", len(mp.Messages), len(mp2.Messages))
			}
		}
		// The lanes' shard key is the first add-order's locate: whenever
		// the decoder visits an add-order, the key must name the first.
		var scratch AddOrder
		var first uint16
		visited := false
		_ = DecodeAddOrders(data, &scratch, func(o *AddOrder, _ []byte) {
			_ = o.StockSymbol()
			_ = o.StockValue()
			if !visited {
				first, visited = o.StockLocate, true
			}
		})
		if visited {
			if loc, ok := FirstAddOrderLocate(data); !ok || loc != first {
				t.Fatalf("FirstAddOrderLocate = %#x, %v; decoder's first add-order has %#x", loc, ok, first)
			}
		}
	})
}

// FuzzMoldRequestDecode checks the retransmission-request codec: never
// panic on arbitrary bytes, and anything that decodes round-trips
// bit-identically.
func FuzzMoldRequestDecode(f *testing.F) {
	var req MoldRequest
	req.SetSession("SEED")
	req.Sequence = 1234
	req.Count = 17
	f.Add(req.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, MoldRequestLen))
	f.Add(make([]byte, MoldRequestLen-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r MoldRequest
		if err := r.DecodeFromBytes(data); err == nil {
			out := r.Bytes()
			if len(out) != MoldRequestLen {
				t.Fatalf("serialized length %d", len(out))
			}
			var r2 MoldRequest
			if err := r2.DecodeFromBytes(out); err != nil || r2 != r {
				t.Fatalf("round trip: %v %+v %+v", err, r, r2)
			}
			_ = r.SessionString()
		}
	})
}

// FuzzMoldControlDecode feeds heartbeat- and end-of-session-shaped inputs
// (and mutations of them) through the downstream decoder: control packets
// must decode with zero messages and never panic.
func FuzzMoldControlDecode(f *testing.F) {
	var sess [10]byte
	copy(sess[:], "CTRLSESS  ")
	f.Add(HeartbeatBytes(sess, 0))
	f.Add(HeartbeatBytes(sess, ^uint64(0)))
	f.Add(EndOfSessionBytes(sess, 1))
	f.Add(EndOfSessionBytes(sess, ^uint64(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var mp MoldPacket
		if err := mp.Decode(data); err != nil {
			return
		}
		if mp.Header.IsHeartbeat() || mp.Header.IsEndOfSession() {
			if len(mp.Messages) != 0 {
				t.Fatalf("control packet decoded %d messages", len(mp.Messages))
			}
			// Rebuilding the control packet from its header must
			// round-trip the header fields.
			var re []byte
			if mp.Header.IsEndOfSession() {
				re = EndOfSessionBytes(mp.Header.Session, mp.Header.Sequence)
			} else {
				re = HeartbeatBytes(mp.Header.Session, mp.Header.Sequence)
			}
			var h2 MoldHeader
			if err := h2.DecodeFromBytes(re); err != nil || h2 != mp.Header {
				t.Fatalf("control round trip: %v %+v %+v", err, mp.Header, h2)
			}
		}
	})
}

// FuzzAddOrderDecode checks the fixed-size message decoder.
func FuzzAddOrderDecode(f *testing.F) {
	var a AddOrder
	a.SetStock("MSFT")
	f.Add(a.Bytes())
	f.Add([]byte{TypeAddOrder})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m AddOrder
		if err := m.DecodeFromBytes(data); err == nil {
			out := m.Bytes()
			if len(out) != AddOrderLen {
				t.Fatalf("serialized length %d", len(out))
			}
			var m2 AddOrder
			if err := m2.DecodeFromBytes(out); err != nil || m2 != m {
				t.Fatalf("round trip: %v %+v %+v", err, m, m2)
			}
		}
	})
}
