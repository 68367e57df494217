package dataplane

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// chaosHarness wires a fault-injected switch to a gap-recovering
// receiver over real loopback UDP. Both ends share one telemetry
// registry, so chaos runs double as end-to-end metric validation.
type chaosHarness struct {
	sw  *Switch
	rcv *Receiver
	pub *net.UDPConn
	tel *telemetry.Telemetry

	mu        sync.Mutex
	seqs      []uint64
	locShares map[uint16][]uint32 // per-instrument delivered shares, in delivery order
	gaps      [][2]uint64
	eos       bool
	runCh     chan error
}

func startChaos(t *testing.T, plan faults.Plan, retxBuffer int, rcvTimeout time.Duration) *chaosHarness {
	return startChaosWorkers(t, plan, retxBuffer, rcvTimeout, 1)
}

func startChaosWorkers(t *testing.T, plan faults.Plan, retxBuffer int, rcvTimeout time.Duration, workers int) *chaosHarness {
	return startChaosMode(t, plan, false, retxBuffer, rcvTimeout, workers, IngressShared)
}

// startChaosMode is the full-control harness entry: egressOnly restricts
// fault injection to the switch's send side (so the switch sees the
// publisher's exact ingress order, making per-instrument ordering
// assertions sharp), and mode selects the ingress architecture.
func startChaosMode(t *testing.T, plan faults.Plan, egressOnly bool, retxBuffer int, rcvTimeout time.Duration, workers int, mode IngressMode) *chaosHarness {
	t.Helper()
	h := &chaosHarness{
		runCh:     make(chan error, 1),
		tel:       telemetry.New(),
		locShares: make(map[uint16][]uint32),
	}

	var rcvErr error
	h.rcv, rcvErr = NewReceiver(ReceiverConfig{
		RequestTimeout: rcvTimeout,
		Seed:           3,
		Telemetry:      h.tel,
		OnMessage: func(seq uint64, msg []byte) {
			var o itch.AddOrder
			h.mu.Lock()
			h.seqs = append(h.seqs, seq)
			if err := o.DecodeFromBytes(msg); err == nil {
				h.locShares[o.StockLocate] = append(h.locShares[o.StockLocate], o.Shares)
			}
			h.mu.Unlock()
		},
		OnGap: func(from, to uint64) {
			h.mu.Lock()
			h.gaps = append(h.gaps, [2]uint64{from, to})
			h.mu.Unlock()
		},
		OnEndOfSession: func() {
			h.mu.Lock()
			h.eos = true
			h.mu.Unlock()
		},
	})
	if rcvErr != nil {
		t.Fatal(rcvErr)
	}
	t.Cleanup(func() { h.rcv.Close() })

	// Fresh injectors per socket and direction, all derived from the one
	// seeded plan, so the whole chaos run is replayable. With egressOnly
	// the read side of every socket is clean: the switch processes the
	// publisher's exact datagram order, and only its sends face chaos.
	// Under any plan the receiver's frame carrying sequence 5 is also
	// dropped once, so every chaos run has a gap to recover whichever
	// frames the seeded plan happens to hit.
	mkWrap := func() func(Conn) Conn {
		seed := plan.Seed
		dropped := new(atomic.Bool)
		return func(c Conn) Conn {
			in, eg := plan, plan
			if egressOnly {
				in = faults.Plan{}
			}
			in.Seed, eg.Seed = seed, seed+1
			seed += 2
			c = faults.WrapConn(c, &in, &eg)
			if plan.Enabled() {
				c = dropSeqOnce{Conn: c, to: h.rcv.Addr(), seq: 5, dropped: dropped}
			}
			return c
		}
	}
	// A second fwd target on the same predicate makes ports {1, 7} a
	// compiled multicast group, so every chaos run drives the shared-body
	// egress engine: the receiver's frames — and every retransmission it
	// recovers — are served from group-encoded shared buffers. Port 7 is
	// a plain sink socket; its copy is not asserted on, it exists to keep
	// the group real.
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(7)",
		RetxBuffer:    retxBuffer,
		Heartbeat:     20 * time.Millisecond,
		Workers:       workers,
		IngressMode:   mode,
		WrapConn:      mkWrap(),
		Telemetry:     h.tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.sw = sw
	t.Cleanup(func() { sw.Close() })
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	sub, err := sw.Subscribe(SubscriberConfig{Port: 1, Addr: h.rcv.Addr().String(), Group: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Port() != 1 || sub.Group() != "chaos" {
		t.Fatalf("subscription identity: port=%d group=%q", sub.Port(), sub.Group())
	}
	if _, err := sw.Subscribe(SubscriberConfig{Port: 7, Addr: sink.LocalAddr().String(), Group: "chaos"}); err != nil {
		t.Fatal(err)
	}

	// The receiver learns the retransmission channel out of band.
	h.rcv.retxAddr = sw.RetxAddr()

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = sw.Run(ctx) }()
	go func() { h.runCh <- h.rcv.Run(ctx) }()

	pub, err := net.DialUDP("udp", nil, sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pub.Close() })
	h.pub = pub
	return h
}

// dropSeqOnce swallows the first frame sent to to that carries Mold
// sequence seq. Every socket of one switch shares dropped, so a
// retransmission of seq is not dropped again.
type dropSeqOnce struct {
	Conn
	to      *net.UDPAddr
	seq     uint64
	dropped *atomic.Bool
}

func (d dropSeqOnce) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	var h itch.MoldHeader
	if addr.Port == d.to.Port && h.DecodeFromBytes(b) == nil && !h.IsEndOfSession() &&
		h.Sequence <= d.seq && d.seq < h.Sequence+uint64(h.Count) && d.dropped.CompareAndSwap(false, true) {
		return len(b), nil
	}
	return d.Conn.WriteToUDP(b, addr)
}

// publish streams count GOOGL add-orders, several per datagram, pacing
// lightly so loopback buffers keep up.
func (h *chaosHarness) publish(t *testing.T, count, perDatagram int) {
	t.Helper()
	var seq uint64 = 1
	sent := 0
	for sent < count {
		var mp itch.MoldPacket
		mp.Header.SetSession("INGRESS")
		mp.Header.Sequence = seq
		n := perDatagram
		if count-sent < n {
			n = count - sent
		}
		for i := 0; i < n; i++ {
			var o itch.AddOrder
			o.SetStock("GOOGL")
			// Vary the locate code across datagrams so sharded runs
			// spread the stream over every worker lane.
			o.StockLocate = uint16(seq % 31)
			o.Shares = uint32(sent + i + 1)
			o.Side = itch.Buy
			mp.Append(o.Bytes())
		}
		if _, err := h.pub.Write(mp.Bytes()); err != nil {
			t.Fatal(err)
		}
		seq += uint64(n)
		sent += n
		if sent%128 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

// publishFlows streams count GOOGL add-orders across `flows` publisher
// sockets, one instrument per socket (locate = flow index), shares
// strictly increasing within each instrument — the multi-flow publisher
// shape the SO_REUSEPORT ingress is designed for: the kernel hash pins
// each instrument's flow to one lane socket.
func (h *chaosHarness) publishFlows(t *testing.T, flows, count, perDatagram int) {
	t.Helper()
	pubs := make([]*net.UDPConn, flows)
	for i := range pubs {
		pub, err := net.DialUDP("udp", nil, h.sw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pub.Close() })
		pubs[i] = pub
	}
	shares := make([]uint32, flows)
	seqs := make([]uint64, flows)
	sent, f := 0, 0
	for sent < count {
		var mp itch.MoldPacket
		mp.Header.SetSession("INGRESS")
		mp.Header.Sequence = seqs[f] + 1
		n := perDatagram
		if count-sent < n {
			n = count - sent
		}
		for i := 0; i < n; i++ {
			var o itch.AddOrder
			o.SetStock("GOOGL")
			o.StockLocate = uint16(f)
			shares[f]++
			o.Shares = shares[f]
			o.Side = itch.Buy
			mp.Append(o.Bytes())
		}
		if _, err := pubs[f].Write(mp.Bytes()); err != nil {
			t.Fatal(err)
		}
		seqs[f] += uint64(n)
		sent += n
		f = (f + 1) % flows
		if sent%128 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
}

// checkInstrumentOrder asserts per-instrument delivery order: within
// every stock locate, the delivered shares values must be strictly
// increasing — any cross-lane reordering inside one instrument would
// surface here as a decrease (the publisher emits them increasing).
// Callers hold h.mu.
func (h *chaosHarness) checkInstrumentOrder(t *testing.T) {
	t.Helper()
	for loc, shares := range h.locShares {
		for i := 1; i < len(shares); i++ {
			if shares[i] <= shares[i-1] {
				t.Fatalf("instrument %d order violated: shares %d delivered after %d",
					loc, shares[i], shares[i-1])
			}
		}
	}
}

// stableMatched waits for the switch's matched counter to stop moving and
// returns it: the ground truth of how many messages entered the egress
// stream (ingress faults legitimately shrink it).
func (h *chaosHarness) stableMatched(t *testing.T) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	last := h.sw.stats.Matched.Load()
	stableSince := time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
		cur := h.sw.stats.Matched.Load()
		if cur != last {
			last, stableSince = cur, time.Now()
			continue
		}
		if time.Since(stableSince) > 300*time.Millisecond {
			return cur
		}
	}
	t.Fatal("matched counter never stabilized")
	return 0
}

// TestChaosRecoveryFullStream is the headline chaos scenario: seeded
// drop + duplication + reordering on both directions of the dataplane
// sockets, and the receiver still surfaces 100% of the matched messages,
// in order, with no gap declared lost. It runs single-lane and sharded
// (4 workers): the multi-worker dataplane adds cross-lane egress
// reordering on top of the injected faults, and delivery must still be
// complete and in sequence order.
func TestChaosRecoveryFullStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			total := 3000
			if testing.Short() {
				total = 600
			}
			plan := faults.Plan{Seed: 11, Drop: 0.01, Duplicate: 0.005, Reorder: 0.01}
			h := startChaosWorkers(t, plan, 0 /* default store */, 15*time.Millisecond, workers)
			h.publish(t, total, 4)

			matched := h.stableMatched(t)
			if matched == 0 {
				t.Fatal("nothing matched")
			}
			deadline := time.Now().Add(20 * time.Second)
			for h.rcv.stats.Delivered.Load() < matched && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}

			h.mu.Lock()
			defer h.mu.Unlock()
			if uint64(len(h.seqs)) != matched {
				t.Fatalf("delivered %d of %d matched messages (gaps lost: %v)", len(h.seqs), matched, h.gaps)
			}
			for i, s := range h.seqs {
				if s != uint64(i+1) {
					t.Fatalf("delivery %d has sequence %d: stream not dense/in-order", i, s)
				}
			}
			if len(h.gaps) != 0 {
				t.Fatalf("gaps declared lost despite full store: %v", h.gaps)
			}
			if h.rcv.stats.Recovered.Load() == 0 {
				t.Fatal("nothing recovered; test is vacuous")
			}
		})
	}
}

// TestChaosIngressModes runs the recovery scenario across the ingress
// architectures — SO_REUSEPORT with a multi-flow publisher, the
// single-flow re-shard fallback, and the non-Linux stub fallback — at 1
// and 4 workers. Faults are injected on the switch's send side only, so
// the assertions are exact: every published message is matched,
// delivered in dense egress order with no gap declared lost, and within
// every instrument delivery preserves publish order (zero cross-lane
// ordering violations).
func TestChaosIngressModes(t *testing.T) {
	cases := []struct {
		name  string
		mode  IngressMode
		flows int // publisher sockets; 0 = one socket, mixed-locate feed
		stub  bool
	}{
		{"reuseport-multiflow", IngressReusePort, 8, false},
		{"reshard-singleflow", IngressReusePortReshard, 0, false},
		{"stub-fallback", IngressReusePort, 0, true},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(t *testing.T) {
				if tc.stub {
					forceStubFallback(t)
				} else if !ReusePortAvailable() {
					t.Skip("SO_REUSEPORT unavailable on this platform")
				}
				total := 3000
				if testing.Short() {
					total = 600
				}
				plan := faults.Plan{Seed: 31, Drop: 0.01, Duplicate: 0.005, Reorder: 0.01}
				h := startChaosMode(t, plan, true /* egress only */, 0, 15*time.Millisecond, workers, tc.mode)
				if tc.stub && h.sw.IngressMode() != IngressShared {
					t.Fatalf("stub fallback ran mode %v, want shared", h.sw.IngressMode())
				}
				if tc.flows > 0 {
					h.publishFlows(t, tc.flows, total, 4)
				} else {
					h.publish(t, total, 4)
				}

				matched := h.stableMatched(t)
				// Ingress is fault-free in this matrix: the switch must
				// have evaluated and matched every published message.
				if matched != uint64(total) {
					t.Fatalf("matched %d of %d published messages on a clean ingress", matched, total)
				}
				deadline := time.Now().Add(20 * time.Second)
				for h.rcv.stats.Delivered.Load() < matched && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}

				h.mu.Lock()
				defer h.mu.Unlock()
				if uint64(len(h.seqs)) != matched {
					t.Fatalf("delivered %d of %d matched messages (gaps lost: %v)", len(h.seqs), matched, h.gaps)
				}
				for i, s := range h.seqs {
					if s != uint64(i+1) {
						t.Fatalf("delivery %d has sequence %d: stream not dense/in-order", i, s)
					}
				}
				if len(h.gaps) != 0 {
					t.Fatalf("gaps declared lost despite full store: %v", h.gaps)
				}
				h.checkInstrumentOrder(t)
				resharded := h.sw.stats.Resharded.Load()
				if tc.mode == IngressReusePortReshard && !tc.stub && workers > 1 && resharded == 0 {
					t.Fatal("single-flow reshard run moved nothing lane-to-lane")
				}
				if (tc.mode == IngressReusePort || tc.stub || workers == 1) && resharded != 0 {
					t.Fatalf("unexpected re-shard traffic: %d", resharded)
				}
				if h.rcv.stats.Recovered.Load() == 0 {
					t.Fatal("nothing recovered; test is vacuous")
				}
			})
		}
	}
}

// TestChaosAgedOutStoreReportsGapLost: with a tiny retransmission store
// and heavy loss, the receiver must not hang — unrecoverable ranges are
// reported as explicit gap-lost events and delivery continues in order
// past them, with delivered + lost covering the whole egress stream.
func TestChaosAgedOutStoreReportsGapLost(t *testing.T) {
	total := 1200
	if testing.Short() {
		total = 400
	}
	plan := faults.Plan{Seed: 23, Drop: 0.30}
	h := startChaos(t, plan, 16 /* tiny store */, 15*time.Millisecond)
	h.publish(t, total, 8)

	matched := h.stableMatched(t)
	deadline := time.Now().Add(20 * time.Second)
	for h.rcv.NextSeq() <= matched && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if h.rcv.NextSeq() <= matched {
		t.Fatalf("receiver hung at seq %d of %d", h.rcv.NextSeq(), matched)
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	lost := h.rcv.stats.GapsLost.Load()
	delivered := h.rcv.stats.Delivered.Load()
	if lost == 0 {
		t.Fatal("no gap-lost events despite aged-out store")
	}
	if delivered+lost != matched {
		t.Fatalf("delivered %d + lost %d != matched %d", delivered, lost, matched)
	}
	for i := 1; i < len(h.seqs); i++ {
		if h.seqs[i] <= h.seqs[i-1] {
			t.Fatalf("delivery order violated: %d after %d", h.seqs[i], h.seqs[i-1])
		}
	}
}

// TestReceiverEndOfSession: closing the switch announces end-of-session
// and the receiver's Run returns cleanly once the stream is drained.
func TestReceiverEndOfSession(t *testing.T) {
	h := startChaos(t, faults.Plan{}, 0, 15*time.Millisecond)
	h.publish(t, 10, 2)

	deadline := time.Now().Add(5 * time.Second)
	for h.rcv.stats.Delivered.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := h.rcv.stats.Delivered.Load(); got != 10 {
		t.Fatalf("delivered %d before close", got)
	}
	if err := h.sw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-h.runCh:
		if err != nil {
			t.Fatalf("receiver Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not terminate on end-of-session")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.eos {
		t.Fatal("OnEndOfSession not invoked")
	}
	if len(h.gaps) != 0 {
		t.Fatalf("unexpected gaps: %v", h.gaps)
	}
}
