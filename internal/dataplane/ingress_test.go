package dataplane

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// forceStubFallback makes a multi-lane switch bind one socket for the
// duration of the test, exercising the non-Linux code path on any
// platform.
func forceStubFallback(t *testing.T) {
	t.Helper()
	old := reuseportAvailable
	reuseportAvailable = false
	t.Cleanup(func() { reuseportAvailable = old })
}

// passConn is a Conn that is not a *net.UDPConn: wrapping a socket in it
// takes the switch off recvmmsg/sendmmsg and onto the portable reader and
// per-datagram writes, the way a fault-injection wrapper does.
type passConn struct{ Conn }

// startIngressSwitch is startSwitch with explicit worker/batch knobs and
// an optional socket wrapper.
func startIngressSwitch(t *testing.T, subs string, workers, batch int, wrap func(Conn) Conn) (*Switch, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	sub1 := listenUDP(t)
	sub2 := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: subs,
		Workers:       workers,
		Batch:         batch,
		WrapConn:      wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	bindPorts(t, sw, map[int]string{
		1: sub1.LocalAddr().String(),
		2: sub2.LocalAddr().String(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sw.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Run: %v", err)
		}
	})
	return sw, sub1, sub2
}

// TestReusePortLaneSockets: where the platform has SO_REUSEPORT a 4-worker
// switch binds one socket per lane to the same ingress address, and all of
// them accept traffic.
func TestReusePortLaneSockets(t *testing.T) {
	if !reuseportAvailable {
		t.Skip("SO_REUSEPORT unavailable on this platform")
	}
	sw, sub1, _ := startIngressSwitch(t, "stock == GOOGL : fwd(1)", 4, 4, nil)
	if len(sw.conns) != 4 {
		t.Fatalf("%d ingress sockets, want 4", len(sw.conns))
	}
	addr := sw.Addr().String()
	for i, c := range sw.conns {
		if got := c.LocalAddr().String(); got != addr {
			t.Fatalf("lane %d bound %s, want %s", i, got, addr)
		}
	}
	// Many short-lived flows: with per-lane sockets the kernel hash
	// should land traffic on more than one lane socket.
	for i := 0; i < 64; i++ {
		pub, err := net.DialUDP("udp", nil, sw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Write(moldWith(t, "S", uint64(i), locatedOrder("GOOGL", uint16(i), uint32(i+1)))); err != nil {
			t.Fatal(err)
		}
		pub.Close()
	}
	got := 0
	for got < 64 {
		mp, ok := recvMold(t, sub1, 3*time.Second)
		if !ok {
			t.Fatalf("stalled after %d/64 messages", got)
		}
		got += len(mp.Messages)
	}
	active := 0
	for _, l := range sw.LaneStats() {
		if l.Datagrams > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("kernel flow hash used %d of 4 lane sockets for 64 flows", active)
	}
}

// TestIngressModesForwardingComplete is the topology matrix of
// TestShardedForwardingComplete: on SO_REUSEPORT lane sockets (the
// reuseport and reshard rows) and on the forced one-socket fallback (the
// stub and shared rows) a 4-worker switch must lose nothing, misroute
// nothing, keep each port's egress sequence space dense, and preserve
// per-instrument order — with one flow per instrument, which the kernel
// spreads over the lane sockets, or one flow for all. The stub and
// wrapped rows put the portable one-datagram reader under the same loop,
// with batching asked for and without; every lane must have processed
// exactly the datagrams its locate owns; and every row's busy clocks must
// add up, lane by lane, to the switch's.
func TestIngressModesForwardingComplete(t *testing.T) {
	const workers = 4
	modes := []struct {
		name      string
		batch     int
		multiFlow bool
		stub      bool // force the one-socket fallback
		wrap      bool
	}{
		{"reuseport-multiflow", 8, true, false, false},
		{"reshard-singleflow", 8, false, false, false},
		{"stub-fallback", 32, false, true, false},
		{"stub-fallback-batch1", 1, false, true, false},
		{"shared-wrapped", 32, false, true, true},
		{"shared-wrapped-batch1", 1, false, true, true},
		{"reshard-wrapped", 32, false, false, true},
	}
	syms := []struct {
		name   string
		locate uint16
	}{{"GOOGL", 11}, {"MSFT", 22}, {"ORCL", 33}} // ORCL never matches

	for _, tc := range modes {
		t.Run(tc.name, func(t *testing.T) {
			sockets := workers
			if tc.stub {
				forceStubFallback(t)
				sockets = 1
			} else if !reuseportAvailable {
				t.Skip("SO_REUSEPORT unavailable on this platform")
			}
			var wrap func(Conn) Conn
			if tc.wrap {
				wrap = func(c Conn) Conn { return passConn{c} }
			}
			sw, sub1, sub2 := startIngressSwitch(t, `
stock == GOOGL : fwd(1)
stock == MSFT : fwd(2)
`, workers, tc.batch, wrap)
			if len(sw.conns) != sockets {
				t.Fatalf("%d ingress sockets, want %d", len(sw.conns), sockets)
			}

			// One publisher socket per instrument (multi-flow) or one for
			// all (single-flow).
			pubs := make([]*net.UDPConn, len(syms))
			for i := range syms {
				if i == 0 || tc.multiFlow {
					pub, err := net.DialUDP("udp", nil, sw.Addr())
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { pub.Close() })
					pubs[i] = pub
				} else {
					pubs[i] = pubs[0]
				}
			}

			const perSym = 200
			sent := 0
			for i := 0; i < perSym; i++ {
				for s, sym := range syms {
					wire := moldWith(t, "SRC", uint64(sent), locatedOrder(sym.name, sym.locate, uint32(i+1)))
					if _, err := pubs[s].Write(wire); err != nil {
						t.Fatal(err)
					}
					sent++
					if sent%128 == 0 {
						time.Sleep(time.Millisecond)
					}
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
				if maxSeqEnd != uint64(perSym)+1 {
					t.Fatalf("%s: sequence space ends at %d, want %d", wantSym, maxSeqEnd, perSym+1)
				}
			}
			drain(sub1, "GOOGL")
			drain(sub2, "MSFT")

			if got := sw.stats.Messages.Load(); got != uint64(sent) {
				t.Fatalf("messages evaluated %d, want %d", got, sent)
			}
			// Every datagram is counted on the lane whose socket read it,
			// and processed by the lane its locate owns: what a lane read
			// and kept, plus what other lanes handed it, is what it owns.
			owned := make([]uint64, workers)
			for _, sym := range syms {
				owned[int(sym.locate)%workers] += perSym
			}
			var lanePkts, out, in uint64
			readers := 0
			for _, l := range sw.LaneStats() {
				if got := l.Datagrams + l.ResharedIn - l.ResharedOut; got != owned[l.Lane] {
					t.Fatalf("lane %d processed %d datagrams, owns %d", l.Lane, got, owned[l.Lane])
				}
				lanePkts += l.Datagrams
				out += l.ResharedOut
				in += l.ResharedIn
				if l.Datagrams > 0 {
					readers++
				}
			}
			if lanePkts != uint64(sent) {
				t.Fatalf("lane datagram accounting %d, want %d", lanePkts, sent)
			}
			resharded := sw.stats.Resharded.Load()
			if out != resharded || in != resharded {
				t.Fatalf("lanes handed out %d and took in %d datagrams, the switch resharded %d", out, in, resharded)
			}
			if !tc.multiFlow {
				// One flow, or one socket, is one reader; three distinct
				// locates cannot all be owned by the reading lane.
				if readers != 1 {
					t.Fatalf("one flow was read on %d lanes", readers)
				}
				if resharded == 0 {
					t.Fatal("single-reader run moved nothing lane-to-lane")
				}
			}

			// The clocks are final once Run has returned: every reader's
			// time is on the lane whose socket it drained, so the lanes
			// add up to the switch and nothing is kept beside them.
			sw.Close()
			readNs, procNs := sw.BusyNs()
			var laneRead, laneProc int64
			for _, l := range sw.LaneStats() {
				laneRead += l.ReadNs + l.DispatchNs
				laneProc += l.ProcNs
			}
			if readNs <= 0 || laneRead != readNs {
				t.Fatalf("lanes account for %d ns of reading, BusyNs reports %d", laneRead, readNs)
			}
			if procNs <= 0 || laneProc != procNs {
				t.Fatalf("lanes account for %d ns of processing, BusyNs reports %d", laneProc, procNs)
			}
		})
	}
}

// discardConn wraps an ingress socket so egress writes are counted and
// dropped — keeping allocation measurements free of kernel send noise.
type phasedReplayConn struct {
	inner Conn
	pkts  [][]byte
	warm  int64
	total int64
	next  atomic.Int64
	gate  chan struct{}
	once  sync.Once
	raddr *net.UDPAddr
}

// ReadFromUDP serves the warm-up share of the replay, blocks on the gate
// (letting the test settle the heap and snapshot counters), then serves
// the measured share and reports the socket closed.
func (c *phasedReplayConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	i := c.next.Add(1) - 1
	if i >= c.total {
		return 0, nil, net.ErrClosed
	}
	if i >= c.warm {
		<-c.gate
	}
	return copy(b, c.pkts[int(i)%len(c.pkts)]), c.raddr, nil
}

func (c *phasedReplayConn) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) { return len(b), nil }
func (c *phasedReplayConn) SetReadDeadline(t time.Time) error                { return c.inner.SetReadDeadline(t) }
func (c *phasedReplayConn) Close() error                                     { return c.inner.Close() }
func (c *phasedReplayConn) LocalAddr() net.Addr                              { return c.inner.LocalAddr() }

// TestShardedSteadyStateAllocs extends the steady-state allocation
// contract to the multi-worker ingress paths: after warm-up, the sharded
// pipeline must recycle its bounded buffer pool instead of allocating —
// at any worker count (the regression was allocs/op growing 0.072 →
// 0.129 from 1 to 8 workers because sync.Pool buffers died to GC under
// channel pressure). The gate is the pool's own miss counter, not the
// process's malloc count: a miss is an ingress buffer this code allocated,
// and a pool that recycles misses at most once per slot it has, however
// many cores the lanes run on and whatever the runtime allocates beside it.
func TestShardedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under the race detector")
	}
	// Distinct leading locates keep every lane busy in sharded mode.
	var pkts [][]byte
	for loc := 0; loc < 8; loc++ {
		pkts = append(pkts, moldWith(t, "S", uint64(loc),
			locatedOrder("GOOGL", uint16(loc), uint32(loc+1)),
			locatedOrder("MSFT", uint16(loc)+100, uint32(loc+1))))
	}
	const warm, measured = 4000, 20000

	// The replay rides a wrapped ingress socket, so on the one-socket
	// fallback every lane's egress is the portable writer. On lane sockets
	// only lane 0's socket is the replay: it reads and hands off by locate,
	// and the other lanes ship through their own plain sockets — the
	// sendmmsg writer.
	writers := []struct {
		name      string
		oneSocket bool
	}{{"portable", true}, {"sendmmsg", false}}

	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			for _, prog := range egressPrograms {
				for _, w := range writers {
					if !w.oneSocket && (workers == 1 || !reuseportAvailable) {
						continue // one wrapped socket either way: the portable row again
					}
					t.Run(prog.name+"/"+w.name, func(t *testing.T) {
						if w.oneSocket {
							forceStubFallback(t)
						}
						shardedSteadyState(t, pkts, warm, measured, workers, prog.subs)
					})
				}
			}
		})
	}
}

func shardedSteadyState(t *testing.T, pkts [][]byte, warm, measured int64, workers int, subs string) {
	var pc *phasedReplayConn
	wrap := func(c Conn) Conn {
		if pc == nil {
			pc = &phasedReplayConn{
				inner: c,
				pkts:  pkts,
				warm:  warm,
				total: warm + measured,
				gate:  make(chan struct{}),
				raddr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1},
			}
			return pc
		}
		return c
	}
	sub := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: subs,
		Workers:       workers,
		RetxBuffer:    64,
		WrapConn:      wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	bindPorts(t, sw, map[int]string{1: sub.LocalAddr().String(), 2: sub.LocalAddr().String()})
	done := make(chan error, 1)
	go func() { done <- sw.Run(context.Background()) }()

	// Wait for a share of the replay to be fully processed (each datagram
	// carries two messages).
	processed := func(datagrams int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sw.stats.Messages.Load() < uint64(2*datagrams) {
			if time.Now().After(deadline) {
				t.Fatalf("replay stalled at %d of %d messages", sw.stats.Messages.Load(), 2*datagrams)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	processed(warm)
	warmMisses := sw.stats.PoolMiss.Load()
	close(pc.gate)
	// The replay socket reports itself closed when it runs dry, which ends
	// Run on one socket; the other lane sockets need the Close.
	processed(warm + measured)
	sw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Every miss adds a buffer to the working set; if the pool holds
	// the whole working set, it never misses more often than it has
	// slots, and what the measured phase adds is only the difference
	// between warm-up's in-flight peak and its own.
	misses := sw.stats.PoolMiss.Load()
	t.Logf("workers=%d: %d pool misses, %d of them in the measured phase, pool of %d", workers, misses, misses-warmMisses, sw.poolCapacity())
	if limit := uint64(sw.poolCapacity()); workers > 1 && misses > limit {
		t.Fatalf("workers=%d: %d pool misses (%d of them in the measured %d datagrams) for a pool of %d: buffers are being dropped, not recycled",
			workers, misses, misses-warmMisses, measured, limit)
	}
	if workers == 1 && misses != 0 {
		t.Fatalf("the inline path took %d buffers from a pool it should not have", misses)
	}
}
