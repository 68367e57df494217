package dataplane

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

func listenUDP(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// startSwitch brings up a dataplane switch with two subscriber sockets.
func startSwitch(t *testing.T, subs string) (*Switch, *net.UDPConn, *net.UDPConn, *net.UDPConn) {
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

func moldWith(t *testing.T, session string, seq uint64, orders ...itch.AddOrder) []byte {
	t.Helper()
	var mp itch.MoldPacket
	mp.Header.SetSession(session)
	mp.Header.Sequence = seq
	for i := range orders {
		mp.Append(orders[i].Bytes())
	}
	return mp.Bytes()
}

func order(sym string, shares uint32, price uint32) itch.AddOrder {
	var o itch.AddOrder
	o.SetStock(sym)
	o.Shares = shares
	o.Price = price
	o.Side = itch.Buy
	return o
}

func recvMold(t *testing.T, conn *net.UDPConn, timeout time.Duration) (*itch.MoldPacket, bool) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 64<<10)
	n, _, err := conn.ReadFromUDP(buf)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return nil, false
		}
		t.Fatal(err)
	}
	var mp itch.MoldPacket
	if err := mp.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	return &mp, true
}

func TestUDPForwardingSplitsFeed(t *testing.T) {
	sw, pub, sub1, sub2 := startSwitch(t, `
stock == GOOGL : fwd(1)
stock == MSFT && shares >= 500 : fwd(2)
`)
	// One datagram with three messages: GOOGL (port 1), small MSFT
	// (drop), big MSFT (port 2).
	wire := moldWith(t, "SESS", 100,
		order("GOOGL", 100, 1000),
		order("MSFT", 100, 1000),
		order("MSFT", 900, 1000),
	)
	if _, err := pub.Write(wire); err != nil {
		t.Fatal(err)
	}

	got1, ok := recvMold(t, sub1, 2*time.Second)
	if !ok {
		t.Fatal("subscriber 1 received nothing")
	}
	// Egress is re-sequenced per port: each subscriber sees its own
	// session identity and a dense sequence space starting at 1,
	// regardless of the ingress numbering.
	if got1.Header.SessionString() != sw.PortSession(1) || got1.Header.Sequence != 1 {
		t.Fatalf("egress not re-sequenced per port: %+v", got1.Header)
	}
	if len(got1.Messages) != 1 {
		t.Fatalf("subscriber 1 got %d messages", len(got1.Messages))
	}
	var o itch.AddOrder
	if err := o.DecodeFromBytes(got1.Messages[0]); err != nil {
		t.Fatal(err)
	}
	if o.StockSymbol() != "GOOGL" {
		t.Fatalf("subscriber 1 got %q", o.StockSymbol())
	}

	got2, ok := recvMold(t, sub2, 2*time.Second)
	if !ok {
		t.Fatal("subscriber 2 received nothing")
	}
	if len(got2.Messages) != 1 {
		t.Fatalf("subscriber 2 got %d messages", len(got2.Messages))
	}
	if err := o.DecodeFromBytes(got2.Messages[0]); err != nil {
		t.Fatal(err)
	}
	if o.StockSymbol() != "MSFT" || o.Shares != 900 {
		t.Fatalf("subscriber 2 got %q shares=%d", o.StockSymbol(), o.Shares)
	}

	// Counters. The lane counts a burst once the kernel has taken it, so
	// both subscribers can hold their packets before Forwarded moves.
	for deadline := time.Now().Add(2 * time.Second); sw.stats.Forwarded.Load() < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if sw.stats.Datagrams.Load() != 1 || sw.stats.Messages.Load() != 3 ||
		sw.stats.Matched.Load() != 2 || sw.stats.Forwarded.Load() != 2 {
		t.Fatalf("stats: datagrams=%d msgs=%d matched=%d fwd=%d",
			sw.stats.Datagrams.Load(), sw.stats.Messages.Load(),
			sw.stats.Matched.Load(), sw.stats.Forwarded.Load())
	}
}

func TestUDPNoMatchNoPacket(t *testing.T) {
	_, pub, sub1, _ := startSwitch(t, "stock == GOOGL : fwd(1)")
	if _, err := pub.Write(moldWith(t, "S", 1, order("ORCL", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMold(t, sub1, 300*time.Millisecond); ok {
		t.Fatal("non-matching message was forwarded")
	}
}

func TestUDPLiveSubscriptionUpdate(t *testing.T) {
	sw, pub, sub1, _ := startSwitch(t, "stock == GOOGL : fwd(1)")
	if err := sw.SetSubscriptions("stock == ORCL : fwd(1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Write(moldWith(t, "S", 1, order("GOOGL", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Write(moldWith(t, "S", 2, order("ORCL", 1, 1))); err != nil {
		t.Fatal(err)
	}
	got, ok := recvMold(t, sub1, 2*time.Second)
	if !ok {
		t.Fatal("no delivery after update")
	}
	var o itch.AddOrder
	if err := o.DecodeFromBytes(got.Messages[0]); err != nil {
		t.Fatal(err)
	}
	if o.StockSymbol() != "ORCL" {
		t.Fatalf("got %q after update, want ORCL", o.StockSymbol())
	}
	// The old GOOGL rule must be gone: at most the ORCL packet arrives.
	if _, ok := recvMold(t, sub1, 200*time.Millisecond); ok {
		t.Fatal("stale subscription still forwarding")
	}
}

// TestUDPForwardsWhileUpdateCompiles: SetSubscriptions holds the lock the
// lanes process under only for its install, not for its compile. Traffic
// sent when the new rule set has compiled and is waiting to be installed is
// forwarded, by the old rules; traffic after the call returns, by the new.
func TestUDPForwardsWhileUpdateCompiles(t *testing.T) {
	sw, pub, sub1, sub2 := startSwitch(t, "stock == GOOGL : fwd(1)")
	both := moldWith(t, "S", 1, order("GOOGL", 1, 1), order("ORCL", 1, 1))
	expect := func(when string, conn *net.UDPConn, sym string) {
		t.Helper()
		got, ok := recvMold(t, conn, 2*time.Second)
		if !ok {
			t.Fatalf("%s: nothing forwarded", when)
		}
		var o itch.AddOrder
		if err := o.DecodeFromBytes(got.Messages[0]); err != nil {
			t.Fatal(err)
		}
		if len(got.Messages) != 1 || o.StockSymbol() != sym {
			t.Fatalf("%s: got %d messages, first %q; want one %s", when, len(got.Messages), o.StockSymbol(), sym)
		}
	}
	sw.installTestHook = func() {
		if _, err := pub.Write(both); err != nil {
			t.Error(err)
		}
		expect("between compile and install", sub1, "GOOGL")
	}
	if err := sw.SetSubscriptions("stock == ORCL : fwd(2)"); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Write(both); err != nil {
		t.Fatal(err)
	}
	expect("after install", sub2, "ORCL")
	for _, conn := range []*net.UDPConn{sub1, sub2} {
		if _, ok := recvMold(t, conn, 200*time.Millisecond); ok {
			t.Fatal("a message was judged by both programs")
		}
	}
}

// TestSetSubscriptionsHonorsDoneContext: a context done before the call, or
// cancelled while the new program waits to be installed, buys no install —
// the error is the context's, the old program stays, and the device sees no
// write.
func TestSetSubscriptionsHonorsDoneContext(t *testing.T) {
	tel := telemetry.New()
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "stock == GOOGL : fwd(1)",
		Telemetry:     tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	writes := tel.Reg().Counter("camus_controlplane_device_writes_total")
	old, before := sw.Program(), writes.Load()
	check := func(when string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", when, err)
		}
		if sw.Program() != old {
			t.Fatalf("%s: program was swapped", when)
		}
		if got := writes.Load(); got != before {
			t.Fatalf("%s: device writes %d -> %d", when, before, got)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	compiled := false
	sw.installTestHook = func() { compiled = true }
	check("cancelled before the call", sw.SetSubscriptionsContext(ctx, "stock == ORCL : fwd(2)"))
	if compiled {
		t.Fatal("a done context still bought a compile")
	}

	ctx, cancel = context.WithCancel(context.Background())
	sw.installTestHook = cancel
	check("cancelled before the install", sw.SetSubscriptionsContext(ctx, "stock == ORCL : fwd(2)"))

	sw.installTestHook = nil
	if err := sw.SetSubscriptions("stock == ORCL : fwd(2)"); err != nil || sw.Program() == old {
		t.Fatalf("live context: err %v, program swapped %v", err, sw.Program() != old)
	}
}

func TestUDPMalformedDatagramCounted(t *testing.T) {
	sw, pub, _, _ := startSwitch(t, "stock == GOOGL : fwd(1)")
	if _, err := pub.Write([]byte("definitely not molded")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for sw.stats.DecodeErrors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if sw.stats.DecodeErrors.Load() == 0 {
		t.Fatal("malformed datagram not counted")
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen(Config{}); err == nil {
		t.Fatal("missing spec should fail")
	}
	if _, err := Listen(Config{
		Spec:  spec.MustParse(workload.ITCHSpecSource),
		Ports: map[int]string{1: "not-an-address::::"},
	}); err == nil {
		t.Fatal("bad port address should fail")
	}
	if _, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "nonsense(((",
	}); err == nil {
		t.Fatal("bad subscriptions should fail")
	}
}

func TestUnboundPortBlackholes(t *testing.T) {
	sw, pub, sub1, _ := startSwitch(t, "stock == GOOGL : fwd(7)") // port 7 unbound
	if _, err := pub.Write(moldWith(t, "S", 1, order("GOOGL", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMold(t, sub1, 300*time.Millisecond); ok {
		t.Fatal("message leaked to a different port")
	}
	if sw.stats.SendErrors.Load() != 0 {
		t.Fatal("unbound port should not count as send error")
	}
	// The black-holed forward must be observable, not silent.
	if sw.stats.UnboundPort.Load() != 1 {
		t.Fatalf("UnboundPort = %d, want 1", sw.stats.UnboundPort.Load())
	}
}

// TestPerPortSequenceDensity is the egress-framing regression test: every
// port's sequence numbers are dense (1, 2, 3, ...) with Count matching
// the per-datagram message count, even when ingress datagrams fan out
// unevenly across ports.
func TestPerPortSequenceDensity(t *testing.T) {
	_, pub, sub1, sub2 := startSwitch(t, `
stock == GOOGL : fwd(1)
stock == MSFT : fwd(2)
`)
	// Uneven fan-out: datagram 1 has 2 GOOGL + 1 MSFT, datagram 2 has
	// 1 GOOGL, datagram 3 has 3 MSFT.
	sends := [][]itch.AddOrder{
		{order("GOOGL", 1, 1), order("GOOGL", 2, 1), order("MSFT", 1, 1)},
		{order("GOOGL", 3, 1)},
		{order("MSFT", 2, 1), order("MSFT", 3, 1), order("MSFT", 4, 1)},
	}
	for i, orders := range sends {
		if _, err := pub.Write(moldWith(t, "IGNORED", uint64(1000*i), orders...)); err != nil {
			t.Fatal(err)
		}
	}

	check := func(conn *net.UDPConn, wantCounts []int) {
		t.Helper()
		wantSeq := uint64(1)
		for _, wantN := range wantCounts {
			mp, ok := recvMold(t, conn, 2*time.Second)
			if !ok {
				t.Fatalf("missing egress datagram (want %d messages at seq %d)", wantN, wantSeq)
			}
			if mp.Header.Sequence != wantSeq {
				t.Fatalf("sequence %d, want %d (density broken)", mp.Header.Sequence, wantSeq)
			}
			if int(mp.Header.Count) != wantN || len(mp.Messages) != wantN {
				t.Fatalf("count %d/%d messages, want %d", mp.Header.Count, len(mp.Messages), wantN)
			}
			wantSeq += uint64(wantN)
		}
	}
	check(sub1, []int{2, 1})
	check(sub2, []int{1, 3})
}

// TestCloseSynchronizesWithRun: Close must return only after the Run
// goroutines have exited, and must announce end-of-session on every port.
func TestCloseSynchronizesWithRun(t *testing.T) {
	sub1 := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Ports:         map[int]string{1: sub1.LocalAddr().String()},
		Subscriptions: "stock == GOOGL : fwd(1)",
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sw.Run(context.Background()) }()

	// Give Run a moment to be active, then Close from the outside.
	pub, err := net.DialUDP("udp", nil, sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if _, err := pub.Write(moldWith(t, "S", 1, order("GOOGL", 1, 1))); err != nil {
		t.Fatal(err)
	}
	if _, ok := recvMold(t, sub1, 2*time.Second); !ok {
		t.Fatal("no forwarding before close")
	}

	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	// Run must already have exited when Close returned.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	default:
		t.Fatal("Close returned while Run was still active")
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The subscriber got the end-of-session announcement.
	for {
		mp, ok := recvMold(t, sub1, 2*time.Second)
		if !ok {
			t.Fatal("no end-of-session announcement")
		}
		if mp.Header.IsEndOfSession() {
			if mp.Header.Sequence != 2 {
				t.Fatalf("end-of-session seq %d, want 2", mp.Header.Sequence)
			}
			return
		}
	}
}
