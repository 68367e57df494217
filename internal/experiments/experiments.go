// Package experiments implements the paper's evaluation (§4): one
// function per figure, shared by the camus-bench CLI and the root-level
// testing.B benchmarks. Each function returns the series the paper plots,
// so the harness can print the same rows the figures report, and opens
// with the question it answers (Goal) and what counts as the paper's
// answer (Success criterion) — the criterion its test asserts. The
// simulated figures are topologies wired from netsim's vocabulary
// (topology.go).
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"camus/internal/compiler"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/stats"
	"camus/internal/workload"
)

// EntriesPoint is one x/y point of Figure 5a or 5b.
type EntriesPoint struct {
	X       int // subscriptions (5a) or predicates per subscription (5b)
	Entries int
}

// Fig5aSweep is the default x-axis of Figure 5a (number of subscriptions).
var Fig5aSweep = []int{10, 15, 20, 25, 30, 35, 40, 45}

// fig5Repeats is how many workload seeds each Figure 5a/5b point averages
// over (single draws of the Siena generator are noisy).
const fig5Repeats = 5

// Fig5a — Goal: how do table entries grow with the number of subscriptions on the Siena-style workload (Fig. 5a)?
// Success criterion: low growth — entries rise with subscriptions but stay far below the naive exponential blowup, so Camus uses the available space effectively.
func Fig5a(seed int64) ([]EntriesPoint, error) {
	cfg := workload.DefaultSienaConfig()
	sp := workload.SienaSpec(cfg)
	var out []EntriesPoint
	for _, n := range Fig5aSweep {
		cfg.Subscriptions = n
		total := 0
		for rep := int64(0); rep < fig5Repeats; rep++ {
			cfg.Seed = seed + rep
			prog, err := compiler.Compile(sp, workload.Siena(cfg), compiler.Options{})
			if err != nil {
				return nil, fmt.Errorf("fig5a n=%d: %w", n, err)
			}
			total += prog.Stats.TableEntries
		}
		out = append(out, EntriesPoint{X: n, Entries: total / fig5Repeats})
	}
	return out, nil
}

// Fig5bSweep is the default x-axis of Figure 5b (predicates per
// subscription).
var Fig5bSweep = []int{2, 3, 4, 5, 6, 7, 8}

// Fig5b — Goal: how do table entries change with subscription selectiveness, the number of predicates in the conjunction (Fig. 5b)?
// Success criterion: more selective subscriptions need fewer entries, because they induce fewer BDD paths.
func Fig5b(seed int64) ([]EntriesPoint, error) {
	cfg := workload.DefaultSienaConfig()
	cfg.Subscriptions = 30
	sp := workload.SienaSpec(cfg)
	var out []EntriesPoint
	for _, k := range Fig5bSweep {
		cfg.Predicates = k
		total := 0
		for rep := int64(0); rep < fig5Repeats; rep++ {
			cfg.Seed = seed + rep
			prog, err := compiler.Compile(sp, workload.Siena(cfg), compiler.Options{})
			if err != nil {
				return nil, fmt.Errorf("fig5b k=%d: %w", k, err)
			}
			total += prog.Stats.TableEntries
		}
		out = append(out, EntriesPoint{X: k, Entries: total / fig5Repeats})
	}
	return out, nil
}

// Fig5cPoint is one row of Figure 5c plus the §4 headline numbers the
// paper reports at 100K subscriptions (21,401 entries, 198 multicast
// groups).
type Fig5cPoint struct {
	Subscriptions int
	CompileTime   time.Duration
	Entries       int
	Groups        int
}

// Fig5cSweep is the default x-axis of Figure 5c.
var Fig5cSweep = []int{1000, 10000, 25000, 50000, 100000}

// Fig5c — Goal: what does compiling 1K–100K ITCH subscriptions cost in time and in table footprint (Fig. 5c)?
// Success criterion: 100K subscriptions compile to entries within 2x of the paper's 21,401, sublinear in subscriptions, far faster than the paper's ~1000 s.
//
// The workload is "stock == S ∧ price > P : fwd(H)" with 100 symbols,
// P in (0,1000) and 200 hosts.
func Fig5c(sizes []int, seed int64) ([]Fig5cPoint, error) {
	if sizes == nil {
		sizes = Fig5cSweep
	}
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Seed = seed
	var out []Fig5cPoint
	for _, n := range sizes {
		cfg.Subscriptions = n
		rules := workload.ITCHSubscriptions(cfg)
		start := time.Now()
		prog, err := compiler.Compile(sp, rules, compiler.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig5c n=%d: %w", n, err)
		}
		out = append(out, Fig5cPoint{
			Subscriptions: n,
			CompileTime:   time.Since(start),
			Entries:       prog.Stats.TableEntries,
			Groups:        prog.Stats.MulticastGroups,
		})
	}
	return out, nil
}

// Fig7Result holds both curves of one Figure 7 plot plus run telemetry.
type Fig7Result struct {
	Camus    *stats.Dist
	Baseline *stats.Dist

	TargetMsgs        int
	TotalMsgs         int
	CamusDelivered    int
	BaselineDelivered int
}

// fig7Port is the switch port the measured subscriber hangs off.
const fig7Port = 1

// Fig7 — Goal: does filtering on the switch cut the subscriber's latency tail (Fig. 7)?
// Success criterion: Camus delivers every target message within ~50µs while the flooding baseline's tail reaches hundreds of µs.
//
// It runs the Star testbed twice over feed, once with the switch
// filtering by rules (source text; "" subscribes the host to target) and
// once flooding, and returns target's latency distribution at the host
// on port 1 under each. Rules that strand every target message on ports
// nothing is wired to are an error, not an empty curve.
func Fig7(feed []workload.FeedPacket, rules, target string) (*Fig7Result, error) {
	if rules == "" {
		rules = fmt.Sprintf("stock == %s : fwd(%d)", target, fig7Port)
	}
	sw, err := ITCHSwitch(rules)
	if err != nil {
		return nil, err
	}
	camus, err := Star(feed, sw, []int{fig7Port}, false, target, nil)
	if err != nil {
		return nil, err
	}
	base, err := Star(feed, sw, []int{fig7Port}, true, target, nil)
	if err != nil {
		return nil, err
	}
	r := &Fig7Result{
		Camus:             camus.Hosts[0].Latency,
		Baseline:          base.Hosts[0].Latency,
		CamusDelivered:    camus.Hosts[0].Msgs,
		BaselineDelivered: base.Hosts[0].Msgs,
	}
	r.TargetMsgs, r.TotalMsgs = workload.TargetCount(feed, target)
	if unwired := camus.Switches[0].UnwiredPorts; r.TargetMsgs > 0 && r.Camus.Count() == 0 && len(unwired) > 0 {
		ports := make([]int, 0, len(unwired))
		for port := range unwired {
			ports = append(ports, port)
		}
		sort.Ints(ports)
		return nil, fmt.Errorf("the subscriber on port %d received none of the %d %s messages: the rules forwarded %d messages to port(s) %v, which nothing is wired to",
			fig7Port, r.TargetMsgs, target, camus.Switches[0].Stats.Unwired, ports)
	}
	return r, nil
}

// Fig7a runs the Nasdaq-trace configuration.
func Fig7a() (*Fig7Result, error) { return fig7(workload.NasdaqTraceConfig()) }

// Fig7b runs the synthetic-feed configuration.
func Fig7b() (*Fig7Result, error) { return fig7(workload.SyntheticFeedConfig()) }

func fig7(cfg workload.FeedConfig) (*Fig7Result, error) {
	return Fig7(workload.GenerateFeed(cfg), "", cfg.TargetSymbol)
}

// ThroughputPoint is one row of the line-rate experiment: per-message
// processing cost of the switch model as the installed subscription count
// grows. The paper's claim is architectural — per-packet work independent
// of rule count — so the ns/msg column should be flat.
type ThroughputPoint struct {
	Rules      int
	NsPerMsg   float64
	MsgsPerSec float64
}

// ThroughputSweep is the default rule-count axis.
var ThroughputSweep = []int{1, 100, 1000, 10000, 100000}

// Throughput — Goal: does the switch model's per-message cost depend on how many rules are installed (§4's line-rate claim)?
// Success criterion: ns/msg stays flat, to within cache effects, from 1 to 100K rules.
func Throughput(sizes []int, msgs int, seed int64) ([]ThroughputPoint, error) {
	if sizes == nil {
		sizes = ThroughputSweep
	}
	if msgs <= 0 {
		msgs = 200000
	}
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Seed = seed
	feed := workload.GenerateFeed(workload.SyntheticFeedConfig())

	var out []ThroughputPoint
	for _, n := range sizes {
		cfg.Subscriptions = n
		prog, err := compiler.Compile(sp, workload.ITCHSubscriptions(cfg), compiler.Options{})
		if err != nil {
			return nil, err
		}
		sw, err := pipeline.New(prog, pipeline.DefaultConfig())
		if err != nil {
			return nil, err
		}
		vals := make([]uint64, len(prog.Fields))
		stockIdx, priceIdx, sharesIdx := -1, -1, -1
		for i, f := range prog.Fields {
			switch f.Name {
			case "add_order.stock":
				stockIdx = i
			case "add_order.price":
				priceIdx = i
			case "add_order.shares":
				sharesIdx = i
			}
		}
		start := time.Now()
		processed := 0
	loop:
		for {
			for _, p := range feed {
				for i := range p.Orders {
					o := &p.Orders[i]
					if stockIdx >= 0 {
						vals[stockIdx] = o.StockValue()
					}
					if priceIdx >= 0 {
						vals[priceIdx] = uint64(o.Price)
					}
					if sharesIdx >= 0 {
						vals[sharesIdx] = uint64(o.Shares)
					}
					sw.Process(vals, 0)
					processed++
					if processed >= msgs {
						break loop
					}
				}
			}
		}
		elapsed := time.Since(start)
		ns := float64(elapsed.Nanoseconds()) / float64(processed)
		out = append(out, ThroughputPoint{
			Rules:      n,
			NsPerMsg:   ns,
			MsgsPerSec: 1e9 / ns,
		})
	}
	return out, nil
}

// AblationPoint compares compiler variants on the same workload.
type AblationPoint struct {
	Variant     string
	Entries     int
	SRAM        int
	TCAM        int
	NaivePaths  uint64 // single wide-table regions (root-to-terminal paths)
	NaiveTCAM   uint64 // single wide-table TCAM entries after expansion
	CompileTime time.Duration
}

// Ablation — Goal: what does each compiler optimization buy on one ITCH workload?
// Success criterion: domain compression cuts TCAM, exact-match lowering moves entries into SRAM, and the naive single wide table the paper rejects costs more than Camus' whole footprint.
//
// The variants are the ones DESIGN.md calls out: full optimizations, no
// domain compression, and range tables forced everywhere.
func Ablation(subs int, seed int64) ([]AblationPoint, error) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = subs
	cfg.Seed = seed
	rules := workload.ITCHSubscriptions(cfg)

	variants := []struct {
		name string
		opts compiler.Options
	}{
		{"full", compiler.Options{}},
		{"no-compression", compiler.Options{DisableCompression: true}},
		{"all-tcam", compiler.Options{ForceRangeTables: true, DisableCompression: true}},
	}
	var out []AblationPoint
	for _, v := range variants {
		start := time.Now()
		prog, err := compiler.Compile(sp, rules, v.opts)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPoint{
			Variant:     v.name,
			Entries:     prog.Stats.TableEntries,
			SRAM:        prog.Stats.SRAMEntries,
			TCAM:        prog.Stats.TCAMEntries,
			NaivePaths:  prog.BDD.CountPaths(),
			NaiveTCAM:   compiler.NaiveTCAMCost(prog),
			CompileTime: time.Since(start),
		})
	}
	return out, nil
}

// FanoutPoint summarizes the feed-splitting experiment for one fabric.
type FanoutPoint struct {
	Mode          string
	FabricMBytes  float64
	DeliveredMsgs int
	TotalMsgs     int
	Subscribers   int
	WorstP99      time.Duration
}

// Fanout — Goal: what does splitting the feed at the switch save a brokerage that today broadcasts it to N servers (§4's motivation)?
// Success criterion: Camus moves several times fewer egress bytes than broadcast and improves the worst subscriber's p99.
//
// Each of the subscribers watches 3 symbols on its own port of one Star.
func Fanout(subscribers int) ([]FanoutPoint, error) {
	var rules strings.Builder
	ports := make([]int, subscribers)
	for s := range ports {
		ports[s] = s + 1
		for k := 0; k < 3; k++ {
			fmt.Fprintf(&rules, "stock == %s : fwd(%d)\n", workload.StockSymbol((s*3+k)%100), ports[s])
		}
	}
	sw, err := ITCHSwitch(rules.String())
	if err != nil {
		return nil, err
	}
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Duration = 100 * time.Millisecond
	feed := workload.GenerateFeed(feedCfg)
	_, total := workload.TargetCount(feed, "")

	var out []FanoutPoint
	for _, mode := range []struct {
		name  string
		flood bool
	}{{"camus", false}, {"broadcast", true}} {
		t, err := Star(feed, sw, ports, mode.flood, "", nil)
		if err != nil {
			return nil, err
		}
		out = append(out, FanoutPoint{
			Mode:          mode.name,
			FabricMBytes:  float64(netsim.Total(t.Links[:subscribers]).Bytes) / 1e6,
			DeliveredMsgs: t.Delivered(),
			TotalMsgs:     total,
			Subscribers:   subscribers,
			WorstP99:      t.WorstP99(),
		})
	}
	return out, nil
}

// FormatFanout renders the feed-splitting comparison.
func FormatFanout(pts []FanoutPoint) string {
	var b strings.Builder
	if len(pts) > 0 {
		fmt.Fprintf(&b, "Feed splitting across %d subscribers (3 symbols each, %d feed messages)\n",
			pts[0].Subscribers, pts[0].TotalMsgs)
	}
	fmt.Fprintf(&b, "%-12s %14s %16s %14s\n", "fabric", "egress-MB", "delivered-msgs", "worst-p99")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-12s %14.2f %16d %14v\n", p.Mode, p.FabricMBytes, p.DeliveredMsgs, p.WorstP99)
	}
	return b.String()
}

// OrderPoint compares BDD field orders on the same workload (§3.2:
// "Determining an optimal field order is NP-hard, but simple heuristics
// often work well in practice").
type OrderPoint struct {
	Order       string
	BDDNodes    int
	Entries     int
	CompileTime time.Duration
}

// OrderAblation — Goal: how much does the BDD field order matter on the Fig. 5c workload (§3.2)?
// Success criterion: the heuristic's order (equality discriminators first) compiles faster than the adversarial price-first order and grows no larger a BDD.
//
// The third variant is the raw spec declaration order.
func OrderAblation(subs int, seed int64) ([]OrderPoint, error) {
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = subs
	cfg.Seed = seed
	rules := workload.ITCHSubscriptions(cfg)

	variants := []struct {
		name  string
		order []string
	}{
		{"heuristic", nil}, // filled by SuggestFieldOrder
		{"price-first", []string{"price", "stock", "shares"}},
		{"spec-order", []string{"shares", "price", "stock"}},
	}
	var out []OrderPoint
	for _, v := range variants {
		sp := spec.MustParse(workload.ITCHSpecSource)
		if v.order == nil {
			if _, err := compiler.ApplySuggestedOrder(sp, rules); err != nil {
				return nil, err
			}
		} else if err := sp.SetFieldOrder(v.order...); err != nil {
			return nil, err
		}
		start := time.Now()
		prog, err := compiler.Compile(sp, rules, compiler.Options{})
		if err != nil {
			return nil, err
		}
		out = append(out, OrderPoint{
			Order:       v.name,
			BDDNodes:    prog.Stats.BDDNodes,
			Entries:     prog.Stats.TableEntries,
			CompileTime: time.Since(start),
		})
	}
	return out, nil
}

// FormatOrderAblation renders the field-order comparison.
func FormatOrderAblation(pts []OrderPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "BDD field-order ablation (heuristic = equality discriminators first)\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "order", "bdd-nodes", "entries", "compile")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14s %12d %12d %12v\n", p.Order, p.BDDNodes, p.Entries, p.CompileTime.Round(time.Millisecond))
	}
	return b.String()
}

// FormatEntriesSeries renders a Figure 5a/5b series as aligned rows.
func FormatEntriesSeries(title, xLabel string, pts []EntriesPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-14s %12s\n", title, xLabel, "entries")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14d %12d\n", p.X, p.Entries)
	}
	return b.String()
}

// FormatFig5c renders the Figure 5c series.
func FormatFig5c(pts []Fig5cPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5c: compile time (paper: 100K subs -> 21,401 entries, 198 groups)\n")
	fmt.Fprintf(&b, "%-14s %14s %10s %8s\n", "subscriptions", "compile", "entries", "groups")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-14d %14v %10d %8d\n", p.Subscriptions, p.CompileTime.Round(time.Millisecond), p.Entries, p.Groups)
	}
	return b.String()
}

// FormatFig7 renders a Figure 7 result as the CDF probe table.
func FormatFig7(name string, r *Fig7Result) string {
	probes := []time.Duration{
		5 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond,
		50 * time.Microsecond, 100 * time.Microsecond, 300 * time.Microsecond,
		600 * time.Microsecond,
	}
	head := fmt.Sprintf("%s: %d/%d target messages; host load camus=%d baseline=%d msgs\n",
		name, r.TargetMsgs, r.TotalMsgs, r.CamusDelivered, r.BaselineDelivered)
	return head + stats.Table(name, r.Camus, r.Baseline, probes)
}

// FormatFig7CSV renders both Figure 7 curves as n-point CDF series.
func FormatFig7CSV(r *Fig7Result, n int) string {
	var b strings.Builder
	fmt.Fprintln(&b, "curve,latency_us,cdf")
	for _, c := range []struct {
		name string
		dist *stats.Dist
	}{{"camus", r.Camus}, {"baseline", r.Baseline}} {
		for _, pt := range c.dist.CDF(n) {
			fmt.Fprintf(&b, "%s,%.3f,%.4f\n", c.name, float64(pt.X.Nanoseconds())/1000, pt.P)
		}
	}
	return b.String()
}

// FormatThroughput renders the line-rate series with the bandwidth model.
func FormatThroughput(pts []ThroughputPoint, cfg pipeline.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline throughput vs installed rules (model: %d ports x %.0f Gb/s = %.2f Tb/s)\n",
		cfg.Ports, cfg.PortRateGbps, cfg.BandwidthTbps())
	fmt.Fprintf(&b, "%-10s %12s %16s\n", "rules", "ns/msg", "msgs/sec")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10d %12.1f %16.0f\n", p.Rules, p.NsPerMsg, p.MsgsPerSec)
	}
	return b.String()
}

// FormatAblation renders the compiler-variant comparison.
func FormatAblation(pts []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Compiler ablation (naive single wide-table baseline: one region per BDD path,\nTCAM expansions multiply across fields)\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %14s %14s %12s\n", "variant", "entries", "sram", "tcam", "naive-paths", "naive-tcam", "compile")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-20s %10d %10d %10d %14d %14d %12v\n",
			p.Variant, p.Entries, p.SRAM, p.TCAM, p.NaivePaths, p.NaiveTCAM, p.CompileTime.Round(time.Millisecond))
	}
	return b.String()
}
