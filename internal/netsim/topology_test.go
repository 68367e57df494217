package netsim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"camus/internal/experiments"
	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// The topologies under test are the ones the figures run
// (experiments.Star and experiments.Fabric); every run ends in
// netsim.Conserve.

func compile(t testing.TB, rules string) *pipeline.Switch {
	t.Helper()
	sw, err := experiments.ITCHSwitch(rules)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func star(t testing.TB, feed []workload.FeedPacket, sw *pipeline.Switch, ports []int, flood bool, target string, chaos *faults.Plan) *netsim.Topology {
	t.Helper()
	topo, err := experiments.Star(feed, sw, ports, flood, target, chaos)
	if err != nil {
		t.Fatal(err)
	}
	netsim.Conserve(t, topo)
	return topo
}

// runPair is one Figure 7 plot: the GOOGL subscriber's host behind a
// filtering and behind a flooding switch.
func runPair(t testing.TB, feedCfg workload.FeedConfig) (camus, baseline *netsim.Host, total int) {
	t.Helper()
	feed := workload.GenerateFeed(feedCfg)
	sw := compile(t, "stock == GOOGL : fwd(1)")
	_, total = workload.TargetCount(feed, "GOOGL")
	return star(t, feed, sw, []int{1}, false, "GOOGL", nil).Hosts[0],
		star(t, feed, sw, []int{1}, true, "GOOGL", nil).Hosts[0], total
}

func TestFigure7aNasdaqShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	camus, base, total := runPair(t, workload.NasdaqTraceConfig())
	t.Logf("nasdaq camus:    %s (hostQ=%d, delivered=%d/%d)", camus.Latency.Summary(), camus.MaxQueue(), camus.Msgs, total)
	t.Logf("nasdaq baseline: %s (hostQ=%d, delivered=%d/%d)", base.Latency.Summary(), base.MaxQueue(), base.Msgs, total)

	if camus.Latency.Count() == 0 || base.Latency.Count() == 0 {
		t.Fatal("no target messages measured")
	}
	// Both runs must see the same target messages.
	if camus.Latency.Count() != base.Latency.Count() {
		t.Fatalf("sample counts differ: %d vs %d", camus.Latency.Count(), base.Latency.Count())
	}
	// Camus must deliver only the filtered fraction to the host.
	if camus.Msgs >= base.Msgs/10 {
		t.Fatalf("switch filtering should slash host load: %d vs %d", camus.Msgs, base.Msgs)
	}
	// Figure 7a's shape: with Camus all messages arrive within ~50µs; the
	// baseline tail stretches to hundreds of µs.
	if got := camus.Latency.Max(); got > 50*time.Microsecond {
		t.Errorf("camus max latency %v exceeds 50µs", got)
	}
	if got := base.Latency.Max(); got < 100*time.Microsecond {
		t.Errorf("baseline tail %v implausibly small; burst queueing missing", got)
	}
	if base.Latency.Percentile(99) <= camus.Latency.Percentile(99) {
		t.Error("baseline p99 should exceed camus p99")
	}
}

func TestFigure7bSyntheticShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	camus, base, _ := runPair(t, workload.SyntheticFeedConfig())
	t.Logf("synthetic camus:    %s", camus.Latency.Summary())
	t.Logf("synthetic baseline: %s", base.Latency.Summary())

	// Figure 7b's shape: camus delivers ~99.5% within 20µs; the baseline
	// only ~96.5% and its tail is several hundred µs.
	cF := camus.Latency.FractionBelow(20 * time.Microsecond)
	bF := base.Latency.FractionBelow(20 * time.Microsecond)
	if cF < 0.99 {
		t.Errorf("camus fraction under 20µs = %.4f, want >= 0.99", cF)
	}
	if bF >= cF {
		t.Errorf("baseline (%.4f) should trail camus (%.4f) at 20µs", bF, cF)
	}
	if base.Latency.Max() < 100*time.Microsecond {
		t.Errorf("baseline tail %v too small", base.Latency.Max())
	}
}

func TestSwitchFilteringRequiresSwitch(t *testing.T) {
	if _, err := netsim.NewTopology().Switch(nil, false); err == nil {
		t.Fatal("missing switch should error")
	}
}

// TestSwitchCountsUnwiredPorts: a message the program forwards to a port
// nothing is wired to is counted against that port, not silently lost —
// and only messages that left on no link at all count as Unwired in the
// node's ledger.
func TestSwitchCountsUnwiredPorts(t *testing.T) {
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Duration = 10 * time.Millisecond
	feed := workload.GenerateFeed(feedCfg)
	googl, _ := workload.TargetCount(feed, "GOOGL")
	if googl == 0 {
		t.Fatal("feed carries no GOOGL")
	}

	stranded := star(t, feed, compile(t, "stock == GOOGL : fwd(2)"), []int{1}, false, "GOOGL", nil)
	node := stranded.Switches[0]
	if node.UnwiredPorts[2] != googl || len(node.UnwiredPorts) != 1 || node.Stats.Unwired != googl {
		t.Fatalf("unwired ledger %v / %+v, want %d messages on port 2", node.UnwiredPorts, node.Stats, googl)
	}
	if got := stranded.Hosts[0].Msgs; got != 0 {
		t.Fatalf("host on port 1 received %d messages forwarded to port 2", got)
	}

	partial := star(t, feed, compile(t, "stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(2)"), []int{1}, false, "GOOGL", nil)
	node = partial.Switches[0]
	if node.UnwiredPorts[2] != googl || node.Stats.Unwired != 0 || node.Stats.Forwarded != googl {
		t.Fatalf("unwired ledger %v / %+v, want %d forwarded with a lost copy each on port 2", node.UnwiredPorts, node.Stats, googl)
	}
	if got := partial.Hosts[0].Msgs; got != googl {
		t.Fatalf("host on port 1 received %d of %d messages", got, googl)
	}
}

// fanout runs a 10 ms synthetic feed through a Star whose switch gives
// each of 4 symbols to `members` subscriber ports under identical
// predicates, so the compiler folds each symbol into one multicast group
// (members == 1 degenerates to unicast actions with no group).
func fanout(t *testing.T, members int, chaos *faults.Plan) *netsim.Topology {
	t.Helper()
	rules := ""
	var ports []int
	for s := 0; s < 4; s++ {
		for m := 0; m < members; m++ {
			port := s*members + m + 1
			rules += fmt.Sprintf("stock == %s : fwd(%d)\n", workload.StockSymbol(s), port)
			ports = append(ports, port)
		}
	}
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Duration = 10 * time.Millisecond
	return star(t, workload.GenerateFeed(feedCfg), compile(t, rules), ports, false, "", chaos)
}

// TestFanoutGroupEncodeAccounting: the simulator's encode-once ledger
// must mirror the dataplane engine — one body serialization per touched
// group per datagram, one send per member, and the saved serialization
// work grows with fanout. A unicast program reports no group activity.
func TestFanoutGroupEncodeAccounting(t *testing.T) {
	uni := fanout(t, 1, nil).Switches[0].Stats
	if uni.GroupEncodes != 0 || uni.GroupSends != 0 || uni.SharedBytesSaved != 0 {
		t.Fatalf("unicast program reported group activity: %+v", uni)
	}

	topo := fanout(t, 3, nil)
	grp := topo.Switches[0].Stats
	if grp.GroupEncodes == 0 {
		t.Fatal("multicast program encoded no group bodies")
	}
	if grp.GroupSends != 3*grp.GroupEncodes {
		t.Fatalf("group sends %d, want 3x encodes (%d)", grp.GroupSends, grp.GroupEncodes)
	}
	if grp.SharedBytesSaved == 0 {
		t.Fatal("no serialization bytes saved at fanout 3")
	}
	// Delivery semantics are unchanged by the accounting: every member of
	// a symbol's group sees the symbol's messages.
	if topo.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestFanoutFaultsDeterministicAndLossy(t *testing.T) {
	clean := fanout(t, 1, nil)
	plan := &faults.Plan{Seed: 9, Drop: 0.2, Duplicate: 0.05, Reorder: 0.1}
	a, b := fanout(t, 1, plan), fanout(t, 1, plan)

	// Links[:4] are the four host links; the last is the publisher's.
	aBytes, bBytes := netsim.Total(a.Links[:4]).Bytes, netsim.Total(b.Links[:4]).Bytes
	if a.Delivered() != b.Delivered() || aBytes != bBytes {
		t.Fatalf("same seed diverged: %d/%d msgs, %d/%d bytes", a.Delivered(), b.Delivered(), aBytes, bBytes)
	}
	for i := range a.Hosts {
		if a.Hosts[i].Msgs != b.Hosts[i].Msgs || a.Links[i].Stats != b.Links[i].Stats {
			t.Fatalf("port %d diverged: %+v vs %+v", i+1, a.Links[i].Stats, b.Links[i].Stats)
		}
	}
	if netsim.Total(a.Links).Dropped == 0 {
		t.Fatal("20%% drop plan dropped nothing")
	}
	if a.Delivered() >= clean.Delivered() {
		t.Fatalf("faulty run delivered %d >= clean %d", a.Delivered(), clean.Delivered())
	}
	if s := netsim.Total(clean.Links); s.Dropped+s.Duplicated+s.Reordered+s.Delayed+s.Recovered != 0 {
		t.Fatalf("clean run reported link faults: %+v", s)
	}
}

// fabricFeed builds a deterministic feed: packets of three orders, stocks
// cycling S000..S(stocks-1), one packet per interval.
func fabricFeed(packets, stocks int) []workload.FeedPacket {
	feed := make([]workload.FeedPacket, packets)
	msg := 0
	for i := range feed {
		feed[i].At = time.Duration(i) * 2 * time.Microsecond
		for k := 0; k < 3; k++ {
			var o itch.AddOrder
			o.SetStock(workload.StockSymbol(msg % stocks))
			o.Shares = uint32(msg + 1)
			o.Price = 1000
			o.Side = itch.Buy
			feed[i].Orders = append(feed[i].Orders, o)
			msg++
		}
	}
	return feed
}

func fabricRules(t *testing.T, hosts []int, stocks int) []lang.Rule {
	t.Helper()
	var src strings.Builder
	for _, h := range hosts {
		fmt.Fprintf(&src, "stock == %s : fwd(%d)\n", workload.StockSymbol(h%stocks), h)
	}
	rules, err := lang.ParseRules(src.String())
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func runFabric(t *testing.T, feed []workload.FeedPacket, rules []lang.Rule, hosts []int, flood bool, chaos *faults.Plan) *experiments.FabricNet {
	t.Helper()
	f, err := experiments.Fabric(feed, rules, 2, hosts, flood, chaos, 50*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	netsim.Conserve(t, f.Topology)
	return f
}

// TestFabricSimExactDelivery: covering and broadcast spines deliver the
// identical per-host message counts — the covers change only what crosses
// the fabric's internal links, which must shrink measurably.
func TestFabricSimExactDelivery(t *testing.T) {
	hosts := []int{1, 2, 3, 4}
	rules := fabricRules(t, hosts, 3)
	// Six stocks published, three subscribed: half the feed is dark.
	feed := fabricFeed(200, 6)
	cov, bro := runFabric(t, feed, rules, hosts, false, nil), runFabric(t, feed, rules, hosts, true, nil)

	// 600 messages, stocks cycle 0..5; host h subscribes S(h%3).
	perStock := 100
	for _, h := range hosts {
		want := perStock
		if got := cov.ByHost[h].Msgs; got != want {
			t.Fatalf("covering: host %d delivered %d, want %d", h, got, want)
		}
		if got := bro.ByHost[h].Msgs; got != want {
			t.Fatalf("broadcast: host %d delivered %d, want %d", h, got, want)
		}
	}

	// Covering uplinks carry only covered stocks (S000-S002 of six): the
	// dark half of the feed never leaves its leaf.
	if got := netsim.Total(cov.Uplinks).Msgs; got != 300 {
		t.Fatalf("covering uplink carried %d msgs, want 300", got)
	}
	if got := netsim.Total(bro.Uplinks).Msgs; got != 600 {
		t.Fatalf("broadcast uplink carried %d msgs, want 600", got)
	}
	if cov.InterSwitchBytes() >= bro.InterSwitchBytes() {
		t.Fatalf("covering fabric bytes %d not below broadcast %d",
			cov.InterSwitchBytes(), bro.InterSwitchBytes())
	}
	if cov.Epoch.SpineEntries >= cov.Epoch.LeafEntries {
		t.Fatalf("spine cover (%d entries) not coarser than leaf rules (%d)",
			cov.Epoch.SpineEntries, cov.Epoch.LeafEntries)
	}
}

// TestFabricSimRecovery: with faults on every inter-switch hop, delivery
// counts are unchanged (the recovering links hide loss, as the live
// relays do) but recovery demonstrably happened and cost bytes and tail
// latency.
func TestFabricSimRecovery(t *testing.T) {
	hosts := []int{1, 2, 3, 4}
	rules := fabricRules(t, hosts, 3)
	feed := fabricFeed(400, 3)
	clean := runFabric(t, feed, rules, hosts, false, nil)
	chaos := runFabric(t, feed, rules, hosts, false, &faults.Plan{Seed: 7, Drop: 0.02, Duplicate: 0.01, Reorder: 0.01})

	hops := netsim.Total(append(chaos.Uplinks, chaos.Downlinks...))
	if hops.Recovered == 0 {
		t.Fatal("fault plan never dropped a packet; chaos vacuous")
	}
	if hops.RetxBytes == 0 {
		t.Fatal("recovery cost no bytes")
	}
	for _, h := range hosts {
		if c, f := clean.ByHost[h].Msgs, chaos.ByHost[h].Msgs; c != f {
			t.Fatalf("host %d: chaos delivered %d, clean %d — recovery lost messages", h, f, c)
		}
	}
	// Recovery shows up where it should: the worst-case delivery latency.
	for _, h := range hosts {
		c, f := clean.ByHost[h].Latency.Max(), chaos.ByHost[h].Latency.Max()
		if f <= c {
			t.Fatalf("host %d: chaos max latency %v not above clean %v", h, f, c)
		}
	}
}
