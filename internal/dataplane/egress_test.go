package dataplane

import (
	"net"
	"strconv"
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
// multicast group receives one datagram's matches in the order the
// buckets were first touched, with dense sequences — not every
// single-port bucket ahead of every group bucket, which delivered [B, A]
// as A then B. One bucket still frames all of its messages together, so
// an interleaving like [B, A, B] reaches port 1 as B, B, A; keeping that
// order too belongs to ROADMAP's "Egress is the bound" item.
func TestEgressFirstTouchOrder(t *testing.T) {
	sub1, sub2 := listenUDP(t), listenUDP(t)
	sw, err := Listen(Config{
		Spec: spec.MustParse(workload.ITCHSpecSource),
		Ports: map[int]string{
			1: sub1.LocalAddr().String(),
			2: sub2.LocalAddr().String(),
		},
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(1,2)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	sw.processDatagram(sw.newProcState(0, sw.conn), moldWith(t, "ING", 1,
		order("MSFT", 10, 1000),
		order("GOOGL", 20, 1000)))

	for i, want := range []string{"MSFT", "GOOGL"} {
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
		if got := o.StockSymbol(); got != want {
			t.Fatalf("port 1 frame %d carries %s, want %s (ingress order was MSFT, GOOGL)", i, got, want)
		}
	}
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
				Spec: spec.MustParse(workload.ITCHSpecSource),
				Ports: map[int]string{
					1: sub1.LocalAddr().String(),
					2: ":" + strconv.Itoa(sub2.LocalAddr().(*net.UDPAddr).Port),
				},
				Subscriptions: "stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(2)",
				Batch:         tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
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
// frame takes the 64-byte class, not a multicast-sized buffer, and a
// class's free list only ever returns bodies of that class, however the
// buffers were sized when they were put back.
func TestSharedPoolSizeClasses(t *testing.T) {
	if got := bodyClass(itch.MoldHeaderLen + 2 + 36); got != 64 {
		t.Fatalf("a one-message body takes a %d-byte class, want 64", got)
	}
	for need, want := range map[int]int{1: 64, 64: 64, 65: 128, 128: 128, 129: 256, 1500: 2048, 64 << 10: 64 << 10} {
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
		sb.unref()
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
