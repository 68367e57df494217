package fabric

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"camus/internal/controlplane"
	"camus/internal/dataplane"
	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// delivery is one message as a subscriber saw it. leaf is the publisher's
// ingress leaf, carried in the order's tracking number: ordering is
// asserted per source stream, because that is what MoldUDP64 preserves —
// the spine merges the two leaves' streams in arrival order.
type delivery struct {
	stock  string
	shares uint32
	leaf   int
}

// subscriber is one host endpoint: a gap-recovering MoldUDP64 receiver
// collecting its deliveries in stream order.
type subscriber struct {
	host int
	rcv  *dataplane.Receiver

	mu   sync.Mutex
	got  []delivery
	gaps [][2]uint64
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *subscriber) deliveries() []delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]delivery(nil), s.got...)
}

// order is one published add-order and where it enters the fabric.
type order struct {
	stock  string
	shares uint32
	price  uint32
	leaf   int
}

type fabricHarness struct {
	t    *testing.T
	fab  *Fabric
	tel  *telemetry.Telemetry
	subs map[int]*subscriber
	pubs []*net.UDPConn
	seqs []uint64
}

// startFabric builds a live fabric, one publisher socket per leaf, and a
// recovering subscriber per host.
func startFabric(t *testing.T, cfg Config, hosts []int) *fabricHarness {
	t.Helper()
	if cfg.Spec == nil {
		cfg.Spec = workload.ITCHSpec()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.New()
	}
	fab, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fab.Close() })
	h := &fabricHarness{t: t, fab: fab, tel: cfg.Telemetry, subs: make(map[int]*subscriber)}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	for _, host := range hosts {
		s := &subscriber{host: host}
		s.rcv, err = dataplane.NewReceiver(dataplane.ReceiverConfig{
			Retx:           fab.HostRetxAddr(host).String(),
			RequestTimeout: 15 * time.Millisecond,
			Seed:           int64(host + 1),
			OnMessage: func(_ uint64, msg []byte) {
				var o itch.AddOrder
				if o.DecodeFromBytes(msg) != nil {
					return
				}
				s.mu.Lock()
				s.got = append(s.got, delivery{stock: o.StockSymbol(), shares: o.Shares, leaf: int(o.TrackingNumber)})
				s.mu.Unlock()
			},
			OnGap: func(from, to uint64) {
				s.mu.Lock()
				s.gaps = append(s.gaps, [2]uint64{from, to})
				s.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rcv := s.rcv
		t.Cleanup(func() { rcv.Close() })
		if err := fab.BindHost(host, s.rcv.Addr().String()); err != nil {
			t.Fatal(err)
		}
		go func() { _ = rcv.Run(ctx) }()
		h.subs[host] = s
	}

	fab.Start(ctx)
	h.pubs = make([]*net.UDPConn, cfg.Leaves)
	h.seqs = make([]uint64, cfg.Leaves)
	for j := range h.pubs {
		pub, err := net.DialUDP("udp", nil, fab.PublishAddr(j))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pub.Close() })
		h.pubs[j] = pub
	}
	return h
}

// publish streams the orders into their leaves, a few per datagram,
// pacing lightly so loopback buffers keep up.
func (h *fabricHarness) publish(orders []order) {
	h.t.Helper()
	locates := make(map[string]uint16)
	for i := 0; i < len(orders); {
		leaf := orders[i].leaf
		var mp itch.MoldPacket
		mp.Header.SetSession(fmt.Sprintf("PUB%d", leaf))
		mp.Header.Sequence = h.seqs[leaf] + 1
		n := 0
		for i < len(orders) && orders[i].leaf == leaf && n < 3 {
			o := orders[i]
			if _, ok := locates[o.stock]; !ok {
				locates[o.stock] = uint16(len(locates))
			}
			var ao itch.AddOrder
			ao.SetStock(o.stock)
			ao.StockLocate = locates[o.stock]
			ao.TrackingNumber = uint16(o.leaf)
			ao.Shares = o.shares
			ao.Price = o.price
			ao.Side = itch.Buy
			mp.Append(ao.Bytes())
			i++
			n++
		}
		h.seqs[leaf] += uint64(n)
		if _, err := h.pubs[leaf].Write(mp.Bytes()); err != nil {
			h.t.Fatal(err)
		}
		if i%99 < 3 {
			time.Sleep(time.Millisecond)
		}
	}
}

// waitDeliveries blocks until every host has at least its expected
// delivery count, lets stragglers (would-be false positives) settle, then
// asserts each host's delivery sequence is exactly its expectation — no
// loss, no extras, no disorder — and that no subscriber declared a gap
// lost.
func (h *fabricHarness) waitDeliveries(expected map[int][]delivery, timeout time.Duration) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for host, want := range expected {
			if h.subs[host].count() < len(want) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			for host, want := range expected {
				if got := h.subs[host].count(); got < len(want) {
					h.t.Errorf("host %d delivered %d of %d", host, got, len(want))
				}
			}
			h.t.FailNow()
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond) // let any false positive arrive

	byLeaf := func(ds []delivery) map[int][]delivery {
		m := make(map[int][]delivery)
		for _, d := range ds {
			m[d.leaf] = append(m[d.leaf], d)
		}
		return m
	}
	for host, want := range expected {
		got := h.subs[host].deliveries()
		if len(got) != len(want) {
			h.t.Fatalf("host %d: delivered %d messages, want exactly %d", host, len(got), len(want))
		}
		// Exact in-order delivery per source stream: each publisher's
		// messages arrive complete and in publish order; only the
		// cross-leaf interleave (the spine's arrival-order merge) is
		// unconstrained.
		gotL, wantL := byLeaf(got), byLeaf(want)
		for leaf := range gotL {
			if _, ok := wantL[leaf]; !ok {
				h.t.Fatalf("host %d: deliveries from unexpected source leaf %d", host, leaf)
			}
		}
		for leaf, w := range wantL {
			g := gotL[leaf]
			if len(g) != len(w) {
				h.t.Fatalf("host %d: %d deliveries from leaf %d, want exactly %d", host, len(g), leaf, len(w))
			}
			for i := range w {
				if g[i] != w[i] {
					h.t.Fatalf("host %d delivery %d from leaf %d: got %+v, want %+v (in-order exact delivery violated)",
						host, i, leaf, g[i], w[i])
				}
			}
		}
		h.subs[host].mu.Lock()
		gaps := len(h.subs[host].gaps)
		h.subs[host].mu.Unlock()
		if gaps != 0 {
			h.t.Fatalf("host %d declared %d gaps lost", host, gaps)
		}
	}
}

// waitCounter polls fn until it reaches want, then asserts it settles at
// exactly want.
func (h *fabricHarness) waitCounter(name string, fn func() uint64, want uint64, timeout time.Duration) {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for fn() < want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	if got := fn(); got != want {
		h.t.Fatalf("%s: %d, want exactly %d", name, got, want)
	}
}

// mustParse builds a rule set from source.
func mustParse(t *testing.T, src string) []lang.Rule {
	t.Helper()
	rules, err := lang.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestFabricChaosTwoHopDelivery is the headline fault-tolerance scenario:
// eight subscriber hosts behind two leaves, every inter-switch link under
// seeded drop + duplication + reordering, messages published at both
// leaves. Every message must reach exactly the matching subscribers —
// across two recovering hops — 100% in order, nothing a spine's cover
// admits may leak to a non-matching subscriber, and the dark stock
// (subscribed by nobody) must not even cross an uplink.
func TestFabricChaosTwoHopDelivery(t *testing.T) {
	hosts := []int{1, 2, 3, 4, 5, 6, 7, 8}
	// Host h: always "stock == S(h%5) : fwd(h)"; even hosts add a
	// price-qualified subscription on another symbol — the cover keeps
	// only the symbol, so the spine forwards low-priced orders the leaf
	// then drops: cover coarseness exercised end to end.
	var src strings.Builder
	primary := make(map[int]string)
	secondary := make(map[int]string)
	for _, hst := range hosts {
		primary[hst] = workload.StockSymbol(hst % 5)
		fmt.Fprintf(&src, "stock == %s : fwd(%d)\n", primary[hst], hst)
		if hst%2 == 0 {
			secondary[hst] = workload.StockSymbol((hst + 2) % 5)
			fmt.Fprintf(&src, "stock == %s && price > 5000 : fwd(%d)\n", secondary[hst], hst)
		}
	}
	rules := mustParse(t, src.String())

	h := startFabric(t, Config{
		Leaves:       2,
		Spines:       1,
		LinkFaults:   faults.Plan{Seed: 9, Drop: 0.01, Duplicate: 0.005, Reorder: 0.01},
		VerifyCovers: true,
	}, hosts)
	ep, err := h.fab.Apply(context.Background(), rules)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Seq != 1 {
		t.Fatalf("epoch %d, want 1", ep.Seq)
	}

	total := 1200
	if testing.Short() {
		total = 300
	}
	// Stock S005 is dark: published, subscribed by nobody.
	orders := make([]order, total)
	for i := range orders {
		orders[i] = order{
			stock:  workload.StockSymbol(i % 6),
			shares: uint32(i + 1),
			price:  uint32(i%10) * 1000,
			leaf:   i % 2,
		}
	}

	// Ground-truth expectations, from the rule semantics alone.
	expected := make(map[int][]delivery)
	for _, hst := range hosts {
		expected[hst] = []delivery{}
	}
	leafStocks := make([]map[string]bool, 2) // symbols covered per leaf
	for j := range leafStocks {
		leafStocks[j] = make(map[string]bool)
	}
	for _, hst := range hosts {
		leafStocks[h.fab.LeafForHost(hst)][primary[hst]] = true
		if sec, ok := secondary[hst]; ok {
			leafStocks[h.fab.LeafForHost(hst)][sec] = true
		}
	}
	coveredLeaf := make([]uint64, 2) // spine→leaf crossings (price quantified away)
	upCovered := make([]uint64, 2)   // leaf→spine crossings (global cover)
	for _, o := range orders {
		for _, hst := range hosts {
			if o.stock == primary[hst] || (secondary[hst] != "" && o.stock == secondary[hst] && o.price > 5000) {
				expected[hst] = append(expected[hst], delivery{stock: o.stock, shares: o.shares, leaf: o.leaf})
			}
		}
		for j := 0; j < 2; j++ {
			if leafStocks[j][o.stock] {
				coveredLeaf[j]++
			}
		}
		if leafStocks[0][o.stock] || leafStocks[1][o.stock] {
			upCovered[o.leaf]++
		}
	}

	h.publish(orders)
	h.waitDeliveries(expected, 60*time.Second)

	// The covers bound what crosses each hop exactly: the dark stock
	// never leaves an up plane, and each leaf receives precisely the
	// orders its cover admits — no false positive crosses the spine.
	for j := 0; j < 2; j++ {
		j := j
		h.waitCounter(fmt.Sprintf("uplink %d crossings", j),
			h.fab.UplinkRelay(j).Forwarded, upCovered[j], 20*time.Second)
		h.waitCounter(fmt.Sprintf("spine→leaf %d crossings", j),
			h.fab.DownlinkRelay(0, j).Forwarded, coveredLeaf[j], 20*time.Second)
	}

	// The run must have actually exercised recovery, or the chaos plan
	// was vacuous.
	var recovered uint64
	for j := 0; j < 2; j++ {
		recovered += h.fab.UplinkRelay(j).Recovered()
		recovered += h.fab.DownlinkRelay(0, j).Recovered()
	}
	if recovered == 0 {
		t.Fatal("no link relay recovered anything; chaos plan injected no loss")
	}
}

// TestFabricLinkFailureFailover: killing a leaf↔spine link makes the
// spine degrade (stop forwarding into the dead link) and the fabric
// reroute every uplink onto the redundant spine; traffic published after
// failover is delivered completely and in order, and the failure is
// visible in camus_fabric_* telemetry.
func TestFabricLinkFailureFailover(t *testing.T) {
	hosts := []int{1, 2, 3, 4}
	var src strings.Builder
	for _, hst := range hosts {
		fmt.Fprintf(&src, "stock == %s : fwd(%d)\n", workload.StockSymbol(hst%3), hst)
	}
	rules := mustParse(t, src.String())

	// The default heartbeat, so a link fails after 80 ms of silence. Under
	// -race beside other test binaries on 2 CPUs, healthy links went 36–61
	// ms without a datagram after the epoch committed: a 5 ms heartbeat's
	// 40 ms timeout failed them.
	h := startFabric(t, Config{
		Leaves:       2,
		Spines:       2,
		Heartbeat:    10 * time.Millisecond,
		VerifyCovers: true,
	}, hosts)
	if _, err := h.fab.Apply(context.Background(), rules); err != nil {
		t.Fatal(err)
	}

	mkBatch := func(n int, base uint32) []order {
		batch := make([]order, n)
		for i := range batch {
			batch[i] = order{
				stock:  workload.StockSymbol(i % 3),
				shares: base + uint32(i+1),
				price:  1000,
				leaf:   i % 2,
			}
		}
		return batch
	}
	expect := func(batches ...[]order) map[int][]delivery {
		expected := make(map[int][]delivery)
		for _, hst := range hosts {
			expected[hst] = []delivery{}
		}
		for _, batch := range batches {
			for _, o := range batch {
				for _, hst := range hosts {
					if o.stock == workload.StockSymbol(hst%3) {
						expected[hst] = append(expected[hst], delivery{stock: o.stock, shares: o.shares, leaf: o.leaf})
					}
				}
			}
		}
		return expected
	}

	batch1 := mkBatch(200, 0)
	h.publish(batch1)
	h.waitDeliveries(expect(batch1), 30*time.Second)
	for j := 0; j < 2; j++ {
		if s := h.fab.ActiveSpine(j); s != 0 {
			t.Fatalf("leaf %d active spine %d before failure, want 0", j, s)
		}
	}
	deadCrossings := h.fab.DownlinkRelay(0, 1).Forwarded()

	h.fab.BreakLink(1, 0)
	deadline := time.Now().Add(10 * time.Second)
	for (h.fab.ActiveSpine(0) != 1 || h.fab.ActiveSpine(1) != 1) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	for j := 0; j < 2; j++ {
		if s := h.fab.ActiveSpine(j); s != 1 {
			t.Fatalf("leaf %d not rerouted off the degraded spine (active %d)", j, s)
		}
	}
	snap := h.tel.Snapshot()
	if v := snap.Counters["camus_fabric_link_failures_total"]; v != 1 {
		t.Fatalf("camus_fabric_link_failures_total = %d, want 1", v)
	}
	if v := snap.Counters["camus_fabric_reroutes_total"]; v != 2 {
		t.Fatalf("camus_fabric_reroutes_total = %d, want 2 (both leaves move)", v)
	}
	if v := snap.Gauges[`camus_fabric_link_up{leaf="1",spine="0"}`]; v != 0 {
		t.Fatalf(`camus_fabric_link_up{leaf="1",spine="0"} = %v, want 0`, v)
	}
	if v := snap.Gauges[`camus_fabric_link_up{leaf="0",spine="1"}`]; v != 1 {
		t.Fatalf(`camus_fabric_link_up{leaf="0",spine="1"} = %v, want 1`, v)
	}

	// Everything published after failover flows through the redundant
	// spine, completely and in order.
	batch2 := mkBatch(200, 1000)
	h.publish(batch2)
	h.waitDeliveries(expect(batch1, batch2), 30*time.Second)

	// The degraded spine sent nothing more into the dead link.
	if got := h.fab.DownlinkRelay(0, 1).Forwarded(); got != deadCrossings {
		t.Fatalf("degraded spine kept forwarding into the dead link: %d crossings, had %d", got, deadCrossings)
	}
}

// TestFabricSpineDeathFailsOver: a spine whose switch dies under traffic
// falls silent on every downlink, so both of its links fail on the
// spine's own stream alone; both leaves land on the redundant spine, and
// what is published after failover arrives complete and in order.
func TestFabricSpineDeathFailsOver(t *testing.T) {
	hosts := []int{1, 2, 3, 4}
	// The covers keep only the symbol, so a low-priced order crosses
	// both hops and the leaf drops it: filler that loads the spines
	// without changing what any host expects.
	var src strings.Builder
	for _, hst := range hosts {
		fmt.Fprintf(&src, "stock == %s && price > 5000 : fwd(%d)\n", workload.StockSymbol(hst%3), hst)
	}
	h := startFabric(t, Config{ // the default heartbeat, as in TestFabricLinkFailureFailover
		Leaves:       2,
		Spines:       2,
		Heartbeat:    10 * time.Millisecond,
		VerifyCovers: true,
	}, hosts)
	if _, err := h.fab.Apply(context.Background(), mustParse(t, src.String())); err != nil {
		t.Fatal(err)
	}

	var shares uint32
	mkBatch := func(n int, price uint32) []order {
		batch := make([]order, n)
		for i := range batch {
			shares++
			batch[i] = order{stock: workload.StockSymbol(i % 3), shares: shares, price: price, leaf: i % 2}
		}
		return batch
	}
	expected := make(map[int][]delivery)
	for _, hst := range hosts {
		expected[hst] = []delivery{}
	}
	publish := func(batch []order) {
		h.publish(batch)
		for _, o := range batch {
			for _, hst := range hosts {
				if o.price > 5000 && o.stock == workload.StockSymbol(hst%3) {
					expected[hst] = append(expected[hst], delivery{stock: o.stock, shares: o.shares, leaf: o.leaf})
				}
			}
		}
	}

	publish(mkBatch(200, 9000))
	h.waitDeliveries(expected, 30*time.Second)

	// Spine 0 dies mid-stream; filler keeps flowing until both of its
	// links have failed.
	publish(mkBatch(60, 1000))
	if err := h.fab.Spine(0).Close(); err != nil {
		t.Fatal(err)
	}
	failures := func() uint64 { return h.tel.Snapshot().Counters["camus_fabric_link_failures_total"] }
	deadline := time.Now().Add(10 * time.Second)
	for (h.fab.ActiveSpine(0) != 1 || h.fab.ActiveSpine(1) != 1 || failures() < 2) && time.Now().Before(deadline) {
		publish(mkBatch(6, 1000))
		time.Sleep(5 * time.Millisecond)
	}
	for j := 0; j < 2; j++ {
		if s := h.fab.ActiveSpine(j); s != 1 {
			t.Fatalf("leaf %d not rerouted off the dead spine (active %d)", j, s)
		}
	}
	snap := h.tel.Snapshot()
	if v := snap.Counters["camus_fabric_link_failures_total"]; v != 2 {
		t.Fatalf("camus_fabric_link_failures_total = %d, want 2", v)
	}
	if v := snap.Counters["camus_fabric_reroutes_total"]; v != 2 {
		t.Fatalf("camus_fabric_reroutes_total = %d, want 2 (both leaves move)", v)
	}
	for j := 0; j < 2; j++ {
		for s, want := range []float64{0, 1} {
			name := fmt.Sprintf(`camus_fabric_link_up{leaf="%d",spine="%d"}`, j, s)
			if v := snap.Gauges[name]; v != want {
				t.Fatalf("%s = %v, want %v", name, v, want)
			}
		}
	}

	// Everything published after failover flows through the surviving
	// spine, completely and in order.
	publish(mkBatch(200, 9000))
	h.waitDeliveries(expected, 30*time.Second)
}

// TestNewRejectsBadShape: New refuses a fabric it cannot build with an
// error, and fills in the zero-valued spine count and heartbeat.
func TestNewRejectsBadShape(t *testing.T) {
	for _, tc := range []struct {
		name           string
		leaves, spines int
		heartbeat      time.Duration
		ok             bool
	}{
		{"defaults", 1, 0, 0, true},
		{"explicit", 2, 2, 5 * time.Millisecond, true},
		{"no leaves", 0, 1, 0, false},
		{"negative leaves", -1, 1, 0, false},
		{"negative spines", 1, -1, 0, false},
		{"negative heartbeat", 1, 1, -time.Millisecond, false},
	} {
		f, err := New(Config{Spec: workload.ITCHSpec(), Leaves: tc.leaves, Spines: tc.spines, Heartbeat: tc.heartbeat})
		if (err == nil) != tc.ok {
			t.Errorf("%s: New error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if f != nil {
			f.Close()
		}
	}
}

// TestFabricEpochRollbackLive: a mid-churn device failure aborts the
// epoch with every member rolled back, and the running fabric keeps
// forwarding coherently on the prior epoch — the half-installed rule
// never takes effect anywhere.
func TestFabricEpochRollbackLive(t *testing.T) {
	hosts := []int{1, 2}
	flaky := make(map[string]*faults.FlakyDevice)
	var flakyMu sync.Mutex
	h := startFabric(t, Config{
		Leaves:       2,
		Spines:       1,
		VerifyCovers: true,
		WrapDevice: func(name string, dev controlplane.Device) controlplane.Device {
			fd := faults.NewFlakyDevice(dev)
			flakyMu.Lock()
			flaky[name] = fd
			flakyMu.Unlock()
			return fd
		},
	}, hosts)

	rules1 := mustParse(t, "stock == S000 : fwd(1)\nstock == S001 : fwd(2)\n")
	if _, err := h.fab.Apply(context.Background(), rules1); err != nil {
		t.Fatal(err)
	}

	mkBatch := func(n int, base uint32) []order {
		batch := make([]order, n)
		for i := range batch {
			batch[i] = order{
				stock:  workload.StockSymbol(i % 3), // S002 dark under rules1
				shares: base + uint32(i+1),
				price:  1000,
				leaf:   i % 2,
			}
		}
		return batch
	}
	expect := func(count int, batches ...[]order) map[int][]delivery {
		expected := map[int][]delivery{1: {}, 2: {}}
		for _, batch := range batches {
			for _, o := range batch {
				switch o.stock {
				case "S000":
					expected[1] = append(expected[1], delivery{stock: o.stock, shares: o.shares, leaf: o.leaf})
				case "S001":
					expected[2] = append(expected[2], delivery{stock: o.stock, shares: o.shares, leaf: o.leaf})
				}
			}
		}
		return expected
	}

	batch1 := mkBatch(99, 0)
	h.publish(batch1)
	h.waitDeliveries(expect(0, batch1), 30*time.Second)

	// Epoch 2 would light up S002 for host 2 — but leaf 1's up plane
	// fails its install, so the whole epoch must roll back.
	up1 := flaky["leaf1/up"]
	up1.FailOn(up1.Calls()+1, false)
	rules2 := append(append([]lang.Rule(nil), rules1...),
		mustParse(t, "stock == S002 : fwd(2)\n")...)
	_, err := h.fab.Apply(context.Background(), rules2)
	if err == nil || !strings.Contains(err.Error(), "all members rolled back") {
		t.Fatalf("failed epoch not rolled back: %v", err)
	}
	if seq := h.fab.Controller().EpochSeq(); seq != 1 {
		t.Fatalf("epoch seq %d after aborted rollout, want 1", seq)
	}

	// The live fabric still speaks epoch 1 end to end: S002 stays dark
	// everywhere — no member serves a piece of the aborted epoch.
	batch2 := mkBatch(99, 1000)
	h.publish(batch2)
	h.waitDeliveries(expect(0, batch1, batch2), 30*time.Second)

	// And the fabric isn't wedged: the same churn converges next try,
	// after which S002 flows to host 2.
	if _, err := h.fab.Apply(context.Background(), rules2); err != nil {
		t.Fatal(err)
	}
	batch3 := []order{{stock: "S002", shares: 5000, price: 1000, leaf: 0}}
	h.publish(batch3)
	expected := expect(0, batch1, batch2)
	expected[2] = append(expected[2], delivery{stock: "S002", shares: 5000, leaf: 0})
	h.waitDeliveries(expected, 30*time.Second)
}
