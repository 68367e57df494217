package dataplane

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// TestPortStateHotPrefixFitsALine: a group member visit touches the
// fields of portState through session and nothing after, so they must
// end within one 64-byte line. The cold tail may spill past it.
func TestPortStateHotPrefixFitsALine(t *testing.T) {
	var ps portState
	if end := unsafe.Offsetof(ps.session) + unsafe.Sizeof(ps.session); end > 64 {
		t.Fatalf("portState's hot prefix ends at byte %d, past one 64-byte line", end)
	}
}

// TestEgressFirstTouchOrder: a port fed by a single-port action and by a
// multicast group receives one datagram's matches in ingress order, with
// dense sequences — not every single-port bucket ahead of every group
// bucket, which delivered [B, A] as A then B, and not one bucket's
// messages together, which delivered [B, A, B] as B, B then A.
func TestEgressFirstTouchOrder(t *testing.T) {
	for _, in := range [][]string{{"MSFT", "GOOGL"}, {"MSFT", "GOOGL", "MSFT"}} {
		t.Run(strings.Join(in, ","), func(t *testing.T) {
			sub1, sub2 := listenUDP(t), listenUDP(t)
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Subscriptions: "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(1,2)",
			})
			if err != nil {
				t.Fatal(err)
			}
			bindPorts(t, sw, map[int]string{
				1: sub1.LocalAddr().String(),
				2: sub2.LocalAddr().String(),
			})
			defer sw.Close()

			var orders []itch.AddOrder
			for i, sym := range in {
				orders = append(orders, order(sym, uint32(10+i), 1000))
			}
			sw.processDatagram(sw.newProcState(0, sw.conn), moldWith(t, "ING", 1, orders...))

			for i, want := range in {
				mp, ok := recvMold(t, sub1, 2*time.Second)
				if !ok {
					t.Fatalf("port 1: frame %d never arrived", i)
				}
				if mp.Header.Sequence != uint64(1+i) || len(mp.Messages) != 1 {
					t.Fatalf("port 1 frame %d: sequence %d with %d messages, want sequence %d with 1",
						i, mp.Header.Sequence, len(mp.Messages), 1+i)
				}
				var o itch.AddOrder
				if err := o.DecodeFromBytes(mp.Messages[0]); err != nil {
					t.Fatal(err)
				}
				if got := o.StockSymbol(); got != want || o.Shares != uint32(10+i) {
					t.Fatalf("port 1 frame %d carries %s (%d shares), want %s (%d): ingress order was %v", i, got, o.Shares, want, 10+i, in)
				}
			}
		})
	}
}

// TestEgressFramesFitAnMTU: one datagram's 60 add-orders for one port
// reach it as frames of at most maxRetxDatagram bytes, with dense
// sequences and every message once, in order — not as one 2.3 KB frame.
func TestEgressFramesFitAnMTU(t *testing.T) {
	const n = 60
	sub := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "stock == GOOGL : fwd(1)",
	})
	if err != nil {
		t.Fatal(err)
	}
	bindPorts(t, sw, map[int]string{1: sub.LocalAddr().String()})
	defer sw.Close()

	var orders []itch.AddOrder
	for i := 0; i < n; i++ {
		orders = append(orders, order("GOOGL", uint32(1+i), 1000))
	}
	sw.processDatagram(sw.newProcState(0, sw.conn), moldWith(t, "ING", 1, orders...))

	buf := make([]byte, 64<<10)
	for got, frames := 0, 0; got < n; frames++ {
		sub.SetReadDeadline(time.Now().Add(2 * time.Second))
		size, _, err := sub.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("after %d frames and %d of %d messages: %v", frames, got, n, err)
		}
		if size > maxRetxDatagram {
			t.Fatalf("frame %d is %d bytes, over the %d-byte cap", frames, size, maxRetxDatagram)
		}
		var mp itch.MoldPacket
		if err := mp.Decode(buf[:size]); err != nil {
			t.Fatal(err)
		}
		if mp.Header.Sequence != uint64(1+got) || int(mp.Header.Count) != len(mp.Messages) {
			t.Fatalf("frame %d: sequence %d count %d with %d messages, want sequence %d", frames, mp.Header.Sequence, mp.Header.Count, len(mp.Messages), 1+got)
		}
		for _, m := range mp.Messages {
			var o itch.AddOrder
			if err := o.DecodeFromBytes(m); err != nil {
				t.Fatal(err)
			}
			if got++; o.Shares != uint32(got) {
				t.Fatalf("message %d carries %d shares, want %d", got, o.Shares, got)
			}
		}
	}
	if f := sw.Metric("camus_dataplane_forwarded_total"); f < 2 {
		t.Fatalf("%d frames carried %d messages", f, n)
	}
}

// TestEgressOneSendCallPerBatch: eight datagrams of one lane batch, all
// for port 1, cost one socket call between them — one frame — on either
// writer, where a flush per datagram made eight.
func TestEgressOneSendCallPerBatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{{"sendmmsg", 32}, {"portable", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sub := listenUDP(t)
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Subscriptions: "stock == GOOGL : fwd(1)",
				Batch:         tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			bindPorts(t, sw, map[int]string{1: sub.LocalAddr().String()})
			defer sw.Close()

			var wires [][]byte
			for i := 0; i < 8; i++ {
				wires = append(wires, moldWith(t, "ING", uint64(1+i), order("GOOGL", uint32(1+i), 1000)))
			}
			processWires(sw, wires...)
			if got := sw.Metric("camus_dataplane_send_calls_total"); got != 1 {
				t.Fatalf("send_calls_total = %d for one batch of 8 datagrams, want 1", got)
			}
			mp, ok := recvMold(t, sub, 2*time.Second)
			if !ok || mp.Header.Sequence != 1 || len(mp.Messages) != 8 {
				t.Fatalf("port 1 did not receive one frame of the 8 messages")
			}
		})
	}
}

// processWires runs wires through a fresh lane as one lane batch, as one
// read of that many datagrams does.
func processWires(sw *Switch, wires ...[]byte) {
	l := &lane{st: sw.newProcState(0, sw.conn)}
	ds := make([]*dgram, len(wires))
	for i, w := range wires {
		ds[i] = &dgram{buf: w, n: len(w)}
	}
	sw.processBatch(l, ds)
}

// TestEgressAcceptsNilIPAddress: ":p" resolves to a UDPAddr with no IP,
// which package net sends to the socket family's zero address. Both
// writers must take it — the sendmmsg writer used to reject it, and to
// charge the failure to the first datagram of the window, another
// subscriber's.
func TestEgressAcceptsNilIPAddress(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{{"sendmmsg", 32}, {"portable", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			sub1, sub2 := listenUDP(t), listenUDP(t)
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Subscriptions: "stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(2)",
				Batch:         tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			bindPorts(t, sw, map[int]string{
				1: sub1.LocalAddr().String(),
				2: ":" + strconv.Itoa(sub2.LocalAddr().(*net.UDPAddr).Port),
			})
			defer sw.Close()

			sw.processDatagram(sw.newProcState(0, sw.conn), moldWith(t, "ING", 1, order("GOOGL", 10, 1000)))

			if got := sw.Metric("camus_dataplane_send_errors_total"); got != 0 {
				t.Errorf("send_errors_total = %d, want 0", got)
			}
			if got := sw.Metric("camus_dataplane_forwarded_total"); got != 2 {
				t.Errorf("forwarded_total = %d, want 2", got)
			}
			for port, sub := range []*net.UDPConn{sub1, sub2} {
				if mp, ok := recvMold(t, sub, 2*time.Second); !ok || len(mp.Messages) != 1 {
					t.Errorf("port %d did not receive its message", port+1)
				}
			}
		})
	}
}

// TestUnbindReleasesRing: every retransmission slot is a reference on a
// shared body, so a port that goes away must hand all of them back — a
// port fed only by single-port actions as much as a group member. After
// Subscription.Close the ring holds no reference, and once the last port
// pinning a body is gone the body is back on its class's free list.
// Then every handle the pool has issued names a body on a free list:
// nothing else holds one.
func TestUnbindReleasesRing(t *testing.T) {
	const rounds = 5
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2,3)",
		RetxBuffer:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	sink := listenUDP(t)
	subs := map[int]*Subscription{}
	for port := 1; port <= 3; port++ {
		if subs[port], err = sw.Subscribe(SubscriberConfig{Port: port, Addr: sink.LocalAddr().String()}); err != nil {
			t.Fatal(err)
		}
	}
	st := sw.newProcState(0, sw.conn)
	for r := 0; r < rounds; r++ {
		sw.processDatagram(st, moldWith(t, "ING", uint64(1+2*r),
			order("GOOGL", uint32(10+r), 1000),
			order("MSFT", uint32(20+r), 1000)))
	}
	// One-message bodies: everything circulates through the smallest class.
	free := sw.bodies.free[0]
	if len(free) != 0 {
		t.Fatalf("%d bodies on the free list while every one is pinned by a ring", len(free))
	}

	// wantFree is the free-list length once the port is unbound: port 1
	// alone pins its bodies; the group's are shared by ports 2 and 3, so
	// they come back when the second of them goes.
	for _, step := range []struct{ port, wantFree int }{{1, rounds}, {2, rounds}, {3, 2 * rounds}} {
		ps := sw.ports[step.port]
		if ps.store.hi != 1+rounds {
			t.Fatalf("port %d ring retained %d messages, want %d", step.port, ps.store.hi-1, rounds)
		}
		subs[step.port].Close()
		for i, sl := range ps.store.slots {
			if sl.body != 0 {
				t.Fatalf("port %d: slot %d still names shared body %d after Close", step.port, i, sl.body)
			}
		}
		if msgs, _ := ps.store.get(nil, 1, rounds, 1<<20); msgs != nil {
			t.Fatalf("port %d: an unbound ring still serves %d messages", step.port, len(msgs))
		}
		if len(free) != step.wantFree {
			t.Fatalf("after unbinding port %d: %d bodies on the free list, want %d", step.port, len(free), step.wantFree)
		}
	}

	onFree := map[*sharedBuf]bool{}
	for _, list := range sw.bodies.free {
		for len(list) > 0 {
			onFree[<-list] = true
		}
	}
	live := liveHandles(t, sw.bodies)
	for _, sb := range live {
		if !onFree[sb] {
			t.Errorf("handle %d names a body holding %d references that is on no free list", sb.h, sb.refs.Load())
		}
	}
	if len(live) != len(onFree) {
		t.Fatalf("%d handles name a body, %d bodies are on the free lists", len(live), len(onFree))
	}
}

// TestSharedPoolSizeClasses pins the ring-memory bound: a one-message
// frame takes the 64-byte class, not a multicast-sized buffer, a larger
// one a class under a third bigger than it, a body's header is 32 bytes,
// and a class's free list only ever returns bodies of that class, however
// the buffers were sized when they were put back.
func TestSharedPoolSizeClasses(t *testing.T) {
	if got := bodyClass(itch.MoldHeaderLen + 2 + 36); got != 64 {
		t.Fatalf("a one-message body takes a %d-byte class, want 64", got)
	}
	if got := unsafe.Sizeof(sharedBuf{}); got > 32 {
		t.Fatalf("sharedBuf is %d bytes, want at most 32", got)
	}
	for need, want := range map[int]int{
		1: 64, 64: 64, 65: 96, 96: 96, 97: 128, 128: 128, 129: 192, 193: 256,
		maxRetxDatagram: 1536, 1537: 2048, 64 << 10: 64 << 10,
	} {
		if got := bodyClass(need); got != want {
			t.Errorf("bodyClass(%d) = %d, want %d", need, got, want)
		}
	}

	p := newSharedPool(4, 64<<10)
	needs := []int{30, 64, 65, 100, 300, 1400, 9000, 64 << 10}
	var held []*sharedBuf
	for _, need := range needs {
		held = append(held, p.get(need))
	}
	for _, sb := range held {
		sb.b = sb.b[:cap(sb.b)] // as left by an encode
		p.unref(sb, 1)
	}
	// Ask in the opposite order, so a single free list would hand a small
	// body to a large need.
	for i := len(needs) - 1; i >= 0; i-- {
		sb := p.get(needs[i])
		if cap(sb.b) != bodyClass(needs[i]) || len(sb.b) != 0 {
			t.Errorf("get(%d) returned len %d cap %d, want an empty body of cap %d", needs[i], len(sb.b), cap(sb.b), bodyClass(needs[i]))
		}
		recycled := false
		for _, h := range held {
			recycled = recycled || h == sb
		}
		if !recycled {
			t.Errorf("get(%d) allocated although its class had a free body", needs[i])
		}
	}
}
