package dataplane

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/faults"
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

// bindPorts binds each switch port to its subscriber address through
// Subscribe, the one way a port is bound.
func bindPorts(tb testing.TB, sw *Switch, ports map[int]string) {
	tb.Helper()
	for port, addr := range ports {
		if _, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: addr}); err != nil {
			sw.Close()
			tb.Fatal(err)
		}
	}
}

// startSwitch brings up a dataplane switch with two subscriber sockets.
func startSwitch(t *testing.T, subs string) (*Switch, *net.UDPConn, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	sub1 := listenUDP(t)
	sub2 := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: subs,
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

// TestUDPForwardsWhileUpdateCompiles: SetSubscriptions takes no lock a lane
// takes, for its compile or its install. Traffic sent when the new rule set
// has compiled, and again while its device write waits out a retry backoff
// inside commit, is forwarded by the old rules; traffic after the call
// returns, by the new; no message is judged by both.
func TestUDPForwardsWhileUpdateCompiles(t *testing.T) {
	sw, pub, sub1, sub2 := startSwitch(t, "stock == GOOGL : fwd(1)")
	both := moldWith(t, "S", 1, order("GOOGL", 1, 1), order("ORCL", 1, 1))
	forwards := func(when string, conn *net.UDPConn, sym string) {
		t.Helper()
		if _, err := pub.Write(both); err != nil {
			t.Fatal(err)
		}
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

	// The install runs through a second controller on the same device: its
	// first write fails transiently, and its backoff blocks until released.
	dev := faults.NewFlakyDevice(sw.Device())
	dev.FailOn(1, true)
	ctl := controlplane.NewController(dev)
	compiled, proceed := make(chan struct{}), make(chan struct{})
	held, release := make(chan struct{}), make(chan struct{})
	ctl.Policy.Sleep = func(time.Duration) { close(held); <-release }
	open := func(ch chan struct{}) {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	t.Cleanup(func() { open(proceed); open(release) }) // a failed check must not leave the update holding
	sw.install = func(ctx context.Context, prog *compiler.Program) (controlplane.Delta, error) {
		close(compiled)
		<-proceed
		return ctl.Update(ctx, prog)
	}
	done := make(chan error, 1)
	go func() { done <- sw.SetSubscriptions("stock == ORCL : fwd(2)") }()
	reach := func(ch chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case err := <-done:
			t.Fatalf("update returned early: %v", err)
		}
	}

	reach(compiled)
	forwards("between compile and install", sub1, "GOOGL")
	open(proceed)
	reach(held)
	forwards("held in commit's backoff", sub1, "GOOGL")
	open(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if dev.Calls() != 2 {
		t.Fatalf("device saw %d writes, want the failed one and its retry", dev.Calls())
	}
	forwards("after install", sub2, "ORCL")
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
	compiles := tel.Reg().Counter("camus_compiler_recompiles_total")
	old, before, compiledBefore := sw.Program(), writes.Load(), compiles.Load()
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
	check("cancelled before the call", sw.SetSubscriptionsContext(ctx, "stock == ORCL : fwd(2)"))
	if compiles.Load() != compiledBefore {
		t.Fatal("a done context still bought a compile")
	}

	ctx, cancel = context.WithCancel(context.Background())
	sw.install = func(ctx context.Context, prog *compiler.Program) (controlplane.Delta, error) {
		cancel()
		return sw.engine.Install(ctx, prog)
	}
	check("cancelled before the install", sw.SetSubscriptionsContext(ctx, "stock == ORCL : fwd(2)"))

	sw.install = sw.engine.Install
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
	sw, err := Listen(Config{Spec: spec.MustParse(workload.ITCHSpecSource)})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if _, err := sw.Subscribe(SubscriberConfig{Port: 1, Addr: "not-an-address::::"}); err == nil {
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
		Subscriptions: "stock == GOOGL : fwd(1)",
	})
	if err != nil {
		t.Fatal(err)
	}
	bindPorts(t, sw, map[int]string{1: sub1.LocalAddr().String()})
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
	// Run's shutdown must already have finished when Close returned. Its
	// return value reaches done only once the goroutine is scheduled
	// again, so runDone, closed as Run's last step, is what is checked.
	select {
	case <-sw.runDone:
	default:
		t.Fatal("Close returned while Run was still active")
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
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
