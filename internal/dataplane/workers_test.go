package dataplane

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// startShardedSwitch is startSwitch with explicit worker/batch knobs.
func startShardedSwitch(t *testing.T, subs string, workers, batch int) (*Switch, *net.UDPConn, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	sub1 := listenUDP(t)
	sub2 := listenUDP(t)
	sw, err := Listen(Config{
		Spec: spec.MustParse(workload.ITCHSpecSource),
		Ports: map[int]string{
			1: sub1.LocalAddr().String(),
			2: sub2.LocalAddr().String(),
		},
		Subscriptions: subs,
		Workers:       workers,
		Batch:         batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sw.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	pub, err := net.DialUDP("udp", nil, sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	return sw, pub, sub1, sub2
}

// locatedOrder builds an add-order carrying an explicit stock locate —
// the shard key of the multi-worker dataplane.
func locatedOrder(sym string, locate uint16, shares uint32) itch.AddOrder {
	o := order(sym, shares, 1000)
	o.StockLocate = locate
	return o
}

// TestShardedForwardingComplete drives a 4-worker switch with many
// instruments and checks nothing is lost or misrouted: every expected
// message arrives, each port's sequence space stays dense (the received
// per-datagram counts sum to exactly the highest sequence seen), and
// per-instrument message order is preserved through the shard lanes.
func TestShardedForwardingComplete(t *testing.T) {
	sw, pub, sub1, sub2 := startShardedSwitch(t, `
stock == GOOGL : fwd(1)
stock == MSFT : fwd(2)
`, 4, 8)

	const perSym = 200
	syms := []struct {
		name   string
		locate uint16
	}{{"GOOGL", 11}, {"MSFT", 22}, {"ORCL", 33}} // ORCL never matches
	sent := 0
	for i := 0; i < perSym; i++ {
		for _, s := range syms {
			// shares encodes the per-instrument send index so receivers
			// can verify in-order delivery within an instrument.
			wire := moldWith(t, "SRC", uint64(sent), locatedOrder(s.name, s.locate, uint32(i+1)))
			if _, err := pub.Write(wire); err != nil {
				t.Fatal(err)
			}
			sent++
		}
	}

	drain := func(conn *net.UDPConn, wantSym string) {
		t.Helper()
		got := 0
		var lastShares uint32
		var maxSeqEnd uint64
		for got < perSym {
			mp, ok := recvMold(t, conn, 3*time.Second)
			if !ok {
				t.Fatalf("%s: stalled after %d/%d messages", wantSym, got, perSym)
			}
			for _, raw := range mp.Messages {
				var o itch.AddOrder
				if err := o.DecodeFromBytes(raw); err != nil {
					t.Fatal(err)
				}
				if o.StockSymbol() != wantSym {
					t.Fatalf("misrouted %q on %s port", o.StockSymbol(), wantSym)
				}
				if o.Shares <= lastShares {
					t.Fatalf("%s: instrument order broken: shares %d after %d", wantSym, o.Shares, lastShares)
				}
				lastShares = o.Shares
				got++
			}
			if end := mp.Header.Sequence + uint64(len(mp.Messages)); end > maxSeqEnd {
				maxSeqEnd = end
			}
		}
		// Dense egress sequencing: the messages received account for
		// every sequence number the port ever assigned.
		if maxSeqEnd != uint64(perSym)+1 {
			t.Fatalf("%s: sequence space ends at %d, want %d", wantSym, maxSeqEnd, perSym+1)
		}
	}
	drain(sub1, "GOOGL")
	drain(sub2, "MSFT")

	if got := sw.stats.Messages.Load(); got != uint64(sent) {
		t.Fatalf("messages evaluated %d, want %d", got, sent)
	}
	if got := sw.stats.Matched.Load(); got != 2*perSym {
		t.Fatalf("matched %d, want %d", got, 2*perSym)
	}
}

// TestShardedLiveUpdate: subscription swaps stay race-free while four
// workers are evaluating (the install lock serializes the engine swap
// against every lane).
func TestShardedLiveUpdate(t *testing.T) {
	sw, pub, sub1, _ := startShardedSwitch(t, "stock == GOOGL : fwd(1)", 4, 4)
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = sw.SetSubscriptions("stock == ORCL : fwd(1)")
			} else {
				err = sw.SetSubscriptions("stock == GOOGL : fwd(1)")
			}
			if err != nil {
				t.Errorf("SetSubscriptions: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 500; i++ {
		wire := moldWith(t, "S", uint64(i),
			locatedOrder("GOOGL", uint16(i%64), uint32(i+1)),
			locatedOrder("ORCL", uint16(i%64)+100, uint32(i+1)))
		if _, err := pub.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	// Whatever was forwarded must decode as one of the two rule targets.
	for {
		mp, ok := recvMold(t, sub1, 500*time.Millisecond)
		if !ok {
			break
		}
		for _, raw := range mp.Messages {
			var o itch.AddOrder
			if err := o.DecodeFromBytes(raw); err != nil {
				t.Fatal(err)
			}
			if s := o.StockSymbol(); s != "GOOGL" && s != "ORCL" {
				t.Fatalf("unexpected symbol %q", s)
			}
		}
	}
}

// egressPrograms are the rule sets the steady-state allocation gates run
// over: ports 1 and 2 fed by single-port actions only, by one multicast
// group only, and by both.
var egressPrograms = []struct{ name, subs string }{
	{"unicast-only", "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)"},
	{"group-only", "stock == GOOGL : fwd(1,2)"},
	{"mixed", "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(1,2)"},
}

// TestProcessDatagramZeroAlloc is the steady-state allocation contract
// of the lane hot path: after warm-up, evaluating a datagram and
// shipping its egress (retx store, framing, socket write included)
// allocates nothing — whatever mix of single-port actions and multicast
// groups the program forwards through, on the sendmmsg writer and on the
// portable one. Warm-up ends when every ring has grown to RetxBuffer: the
// retx-4096 row is the default bound, warmed past capacity.
func TestProcessDatagramZeroAlloc(t *testing.T) {
	for _, prog := range egressPrograms {
		for _, w := range []struct {
			name  string
			batch int
			retx  int
		}{{"sendmmsg", 32, 64}, {"portable", 1, 64}, {"sendmmsg-retx-4096", 32, 4096}} {
			t.Run(prog.name+"/"+w.name, func(t *testing.T) {
				sub1 := listenUDP(t)
				sub2 := listenUDP(t)
				sw, err := Listen(Config{
					Spec: spec.MustParse(workload.ITCHSpecSource),
					Ports: map[int]string{
						1: sub1.LocalAddr().String(),
						2: sub2.LocalAddr().String(),
					},
					Subscriptions: prog.subs,
					RetxBuffer:    w.retx,
					Batch:         w.batch,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sw.Close()

				st := sw.newProcState(0, sw.conn)
				wire := moldWith(t, "S", 1,
					order("GOOGL", 10, 1000),
					order("MSFT", 20, 1000),
					order("ORCL", 30, 1000))
				// Warm the lane until every reusable buffer (value rows,
				// egress entries, shared bodies, retx ring slots) has
				// reached its steady-state capacity. Every port is sent at
				// least one message per datagram.
				for i := 0; i < w.retx+200; i++ {
					sw.processDatagram(st, wire)
				}
				for port, ps := range sw.ports {
					if got := ps.store.hi - ps.store.lo; len(ps.store.slots) != w.retx || got != uint64(w.retx) {
						t.Fatalf("port %d: ring of %d slots retains %d after warm-up, want %d of %d", port, len(ps.store.slots), got, w.retx, w.retx)
					}
				}
				if allocs := testing.AllocsPerRun(500, func() {
					sw.processDatagram(st, wire)
				}); allocs != 0 {
					t.Fatalf("processDatagram allocates %v per op in steady state", allocs)
				}
			})
		}
	}
}

// TestServeRetxHonorsReadBuffer: the retransmission socket must use the
// configured read buffer, not a hardcoded one (regression test for the
// fixed 2048-byte buffer).
func TestServeRetxHonorsReadBuffer(t *testing.T) {
	sub1 := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Ports:         map[int]string{1: sub1.LocalAddr().String()},
		Subscriptions: "stock == GOOGL : fwd(1)",
		ReadBuffer:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sw.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	}()

	pub, err := net.DialUDP("udp", nil, sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Write(moldWith(t, "S", 1, order("GOOGL", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMold(t, sub1, 2*time.Second); !ok {
		t.Fatal("no forwarding")
	}

	// A valid request padded well past 2048 bytes must still be parsed
	// (MoldRequest reads its fixed-size prefix).
	req := itch.MoldRequest{Sequence: 1, Count: 1}
	copy(req.Session[:], sw.PortSession(1))
	padded := make([]byte, 3000)
	copy(padded, req.Bytes())
	rx, err := net.DialUDP("udp", nil, sw.RetxAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if _, err := rx.Write(padded); err != nil {
		t.Fatal(err)
	}
	mp, ok := recvMold(t, rx, 2*time.Second)
	if !ok {
		t.Fatal("padded retransmission request not served")
	}
	if mp.Header.Sequence != 1 || len(mp.Messages) != 1 {
		t.Fatalf("retx reply: seq=%d msgs=%d", mp.Header.Sequence, len(mp.Messages))
	}
}

// BenchmarkProcessDatagram measures the lane hot path end to end
// (decode, batched pipeline evaluation, framing, socket egress) at a few
// datagram sizes.
func BenchmarkProcessDatagram(b *testing.B) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Ports:         map[int]string{1: sink.LocalAddr().String()},
		Subscriptions: "stock == GOOGL : fwd(1)",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sw.Close()
	for _, msgs := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("msgs-%d", msgs), func(b *testing.B) {
			var mp itch.MoldPacket
			mp.Header.SetSession("BENCH")
			for i := 0; i < msgs; i++ {
				sym := "GOOGL"
				if i%2 == 1 {
					sym = "ORCL"
				}
				o := locatedOrder(sym, uint16(i), uint32(i+1))
				mp.Append(o.Bytes())
			}
			wire := mp.Bytes()
			st := sw.newProcState(0, sw.conn)
			sw.processDatagram(st, wire) // warm-up
			b.ReportAllocs()
			b.SetBytes(int64(len(wire)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.processDatagram(st, wire)
			}
		})
	}
}
