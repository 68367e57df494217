// Package experiments implements the paper's evaluation (§4): one
// function per figure, shared by the camus-bench CLI and the root-level
// testing.B benchmarks. Each function returns the series the paper plots,
// so the harness can print the same rows the figures report.
package experiments

import (
	"fmt"
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

// Fig5a measures table entries vs. number of subscriptions on the
// Siena-style workload. The paper's observation: low growth rate — Camus
// uses available space effectively.
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

// Fig5b measures table entries vs. subscription selectiveness (number of
// predicates in the conjunction). The paper's observation: more selective
// subscriptions need fewer entries because they induce fewer BDD paths.
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

// Fig5c measures compile time (and resulting table footprint) for the
// ITCH workload "stock == S ∧ price > P : fwd(H)" with 100 symbols,
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

// Fig7 runs the end-to-end latency experiment for a feed configuration,
// once with switch filtering (Camus) and once with the software baseline.
func Fig7(feedCfg workload.FeedConfig) (*Fig7Result, error) {
	feed := workload.GenerateFeed(feedCfg)
	sp := workload.ITCHSpec()
	prog, err := compiler.CompileSource(sp,
		fmt.Sprintf("stock == %s : fwd(1)", feedCfg.TargetSymbol), compiler.Options{})
	if err != nil {
		return nil, err
	}
	sw, err := pipeline.New(prog, pipeline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	camusRes, err := netsim.RunExperiment(netsim.ExperimentConfig{
		Feed: feed, TargetSymbol: feedCfg.TargetSymbol,
		Mode: netsim.SwitchFiltering, Switch: sw, SubscriberPort: 1,
	})
	if err != nil {
		return nil, err
	}
	baseRes, err := netsim.RunExperiment(netsim.ExperimentConfig{
		Feed: feed, TargetSymbol: feedCfg.TargetSymbol, Mode: netsim.Baseline,
	})
	if err != nil {
		return nil, err
	}
	return &Fig7Result{
		Camus:             camusRes.Latency,
		Baseline:          baseRes.Latency,
		TargetMsgs:        camusRes.TargetMsgs,
		TotalMsgs:         camusRes.TotalMsgs,
		CamusDelivered:    camusRes.DeliveredMsg,
		BaselineDelivered: baseRes.DeliveredMsg,
	}, nil
}

// Fig7a runs the Nasdaq-trace configuration.
func Fig7a() (*Fig7Result, error) { return Fig7(workload.NasdaqTraceConfig()) }

// Fig7b runs the synthetic-feed configuration.
func Fig7b() (*Fig7Result, error) { return Fig7(workload.SyntheticFeedConfig()) }

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

// Throughput measures switch-model processing cost vs. rule count.
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

// Ablation compiles one ITCH workload under the design variants DESIGN.md
// calls out: full optimizations, no domain compression, no exact-match
// lowering, and the naive single-table encoding the paper rejects.
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

// Fanout quantifies §4's motivation: a brokerage fans the feed out to N
// servers, each interested in a few symbols. Broadcasting delivers
// everything everywhere; Camus splits the feed at the switch. Each of the
// subscribers watches 3 symbols on its own port.
func Fanout(subscribers int) ([]FanoutPoint, error) {
	sp := workload.ITCHSpec()
	rules := ""
	for s := 0; s < subscribers; s++ {
		for k := 0; k < 3; k++ {
			rules += fmt.Sprintf("stock == %s : fwd(%d)\n", workload.StockSymbol((s*3+k)%100), s+1)
		}
	}
	prog, err := compiler.CompileSource(sp, rules, compiler.Options{})
	if err != nil {
		return nil, err
	}
	sw, err := pipeline.New(prog, pipeline.DefaultConfig())
	if err != nil {
		return nil, err
	}
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Duration = 100 * time.Millisecond
	feed := workload.GenerateFeed(feedCfg)
	ports := make([]int, subscribers)
	for i := range ports {
		ports[i] = i + 1
	}

	var out []FanoutPoint
	for _, mode := range []struct {
		name      string
		broadcast bool
	}{{"camus", false}, {"broadcast", true}} {
		r, err := netsim.RunFanout(netsim.FanoutConfig{
			Feed: feed, Switch: sw, Ports: ports, Broadcast: mode.broadcast,
		})
		if err != nil {
			return nil, err
		}
		worst := time.Duration(0)
		for _, ps := range r.PerPort {
			if ps.Latency.Count() > 0 {
				if p := ps.Latency.Percentile(99); p > worst {
					worst = p
				}
			}
		}
		out = append(out, FanoutPoint{
			Mode:          mode.name,
			FabricMBytes:  float64(r.FabricBytes) / 1e6,
			DeliveredMsgs: r.DeliveredTotal(),
			TotalMsgs:     r.TotalMsgs,
			Subscribers:   subscribers,
			WorstP99:      worst,
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

// OrderAblation compiles the Fig. 5c workload under three field orders:
// the heuristic's choice (stock first), the adversarial reverse (price
// first), and the raw spec declaration order.
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
