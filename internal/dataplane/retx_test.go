package dataplane

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"unsafe"

	"camus/internal/itch"
	"camus/internal/workload"
)

// TestRetxSlotIsFourBytes: sixteen ring slots share a cache line, so the
// ring's footprint, and the miss rate at high fanout, stays what the
// retxSlot comment measures.
func TestRetxSlotIsFourBytes(t *testing.T) {
	if got := unsafe.Sizeof(retxSlot{}); got != 4 {
		t.Fatalf("retxSlot is %d bytes, want 4", got)
	}
}

// TestRetxRingGrowsToBound: a port pays for what it has sent. Stored one
// message at a time, a ring allocates ceil(log4(max/64)) times after the
// one it was bound with, retains every message until max are held (nothing
// evicted early) and exactly max from then on (nothing retained late), and
// stops growing at max.
func TestRetxRingGrowsToBound(t *testing.T) {
	for _, max := range []int{1, 63, 64, 65, 1000, 4096, 5000} {
		t.Run(fmt.Sprint(max), func(t *testing.T) {
			p := newRingPool(max)
			s := newRetxStore(max, p)
			r := newRingSide(grownRing{s}, p)
			if len(s.slots) != min(max, retxInitialSlots) {
				t.Fatalf("bound with %d slots, want %d", len(s.slots), min(max, retxInitialSlots))
			}
			rings := 0
			var offs []uint32
			for n := 1; n <= 2*max+10; n++ {
				before := len(s.slots)
				offs = r.store(s.hi, 1, offs, false)
				if len(s.slots) != before {
					rings++
				}
				if got, want := s.hi-s.lo, uint64(min(n, max)); got != want {
					t.Fatalf("after %d messages the ring retains %d, want %d", n, got, want)
				}
				if evicted := len(r.recycled()); (evicted != 0) != (n > max) {
					t.Fatalf("message %d of a ring bounded at %d evicted %d bodies", n, max, evicted)
				}
			}
			if len(s.slots) != max {
				t.Fatalf("ring ended at %d slots, want the bound %d", len(s.slots), max)
			}
			if limit := retxGrowthSteps(max); rings != limit {
				t.Fatalf("ring grew %d times, want ceil(log%d(%d/%d)) = %d", rings, retxGrowth, max, retxInitialSlots, limit)
			}
		})
	}
}

// TestSubscribeCostIndependentOfRetxBuffer: RetxBuffer is a bound, not a
// reservation. At a bound of 2^20 messages a reserved ring is 4 MB per
// port; a bind allocates a few hundred bytes of port state and a 256 B
// ring.
func TestSubscribeCostIndependentOfRetxBuffer(t *testing.T) {
	const ports = 1000
	sw, err := Listen(Config{
		Spec:          workload.ITCHSpec(),
		Subscriptions: "stock == GOOGL : fwd(1)",
		RetxBuffer:    1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := 1; p <= ports; p++ {
		if _, err := sw.Subscribe(SubscriberConfig{Port: p, Addr: "127.0.0.1:9"}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perPort := (after.TotalAlloc - before.TotalAlloc) / ports; perPort >= 2<<10 {
		t.Fatalf("Subscribe allocates %d B per port at RetxBuffer 1<<20, want < 2 KB", perPort)
	}
}

// TestReplyRetxAllocatesNothing: a retransmission reply is built under the
// port lock egress is waiting on, into the one reply serveRetx reuses — a
// served range and the nothing-retained answer alike cost no allocation
// once the reply has held a full datagram.
func TestReplyRetxAllocatesNothing(t *testing.T) {
	sub := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          workload.ITCHSpec(),
		Subscriptions: "stock == GOOGL : fwd(1)",
	})
	if err != nil {
		t.Fatal(err)
	}
	bindPorts(t, sw, map[int]string{1: sub.LocalAddr().String()})
	defer sw.Close()
	st := sw.newProcState(0, nullConn{})
	wire := moldWith(t, "S", 1, order("GOOGL", 10, 1000))
	for i := 0; i < 100; i++ {
		sw.processDatagram(st, wire)
	}
	ps := sw.ports[1]
	raddr := sub.LocalAddr().(*net.UDPAddr)
	rep := retxReply{wire: make([]byte, 0, maxRetxDatagram)}
	for _, req := range []itch.MoldRequest{{Sequence: 1, Count: 100}, {Sequence: 101, Count: 1}} {
		sw.replyRetx(ps, &req, raddr, &rep) // sizes rep.mp.Messages
		if allocs := testing.AllocsPerRun(100, func() { sw.replyRetx(ps, &req, raddr, &rep) }); allocs != 0 {
			t.Errorf("replyRetx(from %d, count %d) allocates %v per reply", req.Sequence, req.Count, allocs)
		}
	}
	if served := sw.stats.RetxMessages.Load(); served == 0 {
		t.Fatal("no retransmitted message was counted: the replies were not sent")
	}
}

// BenchmarkSubscribe prices binding a switch's ports at the default
// RetxBuffer: one op is the whole bind of that many ports.
func BenchmarkSubscribe(b *testing.B) {
	for _, ports := range []int{320, 10000} {
		b.Run(fmt.Sprintf("ports-%d", ports), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sw, err := Listen(Config{
					Spec:          workload.ITCHSpec(),
					Subscriptions: "stock == GOOGL : fwd(1)",
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for p := 1; p <= ports; p++ {
					if _, err := sw.Subscribe(SubscriberConfig{Port: p, Addr: "127.0.0.1:9"}); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				sw.Close()
				b.StartTimer()
			}
		})
	}
}
