// Benchmarks regenerating the paper's evaluation (§4), one per figure.
// Custom metrics carry the figure's y-axis (table entries, multicast
// groups, latency percentiles) alongside the usual ns/op. The camus-bench
// command prints the same series as human-readable tables.
package camus

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/experiments"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// BenchmarkFig5aEntriesVsSubscriptions regenerates Figure 5a: switch table
// entries as the number of Siena-style subscriptions grows.
func BenchmarkFig5aEntriesVsSubscriptions(b *testing.B) {
	cfg := workload.DefaultSienaConfig()
	sp := workload.SienaSpec(cfg)
	for _, n := range experiments.Fig5aSweep {
		b.Run(fmt.Sprintf("subs-%d", n), func(b *testing.B) {
			cfg.Subscriptions = n
			rules := workload.Siena(cfg)
			var entries int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(sp, rules, compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				entries = prog.Stats.TableEntries
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkFig5bEntriesVsPredicates regenerates Figure 5b: entries as
// subscriptions get more selective (longer conjunctions ⇒ fewer entries).
func BenchmarkFig5bEntriesVsPredicates(b *testing.B) {
	cfg := workload.DefaultSienaConfig()
	cfg.Subscriptions = 30
	sp := workload.SienaSpec(cfg)
	for _, k := range experiments.Fig5bSweep {
		b.Run(fmt.Sprintf("preds-%d", k), func(b *testing.B) {
			cfg.Predicates = k
			rules := workload.Siena(cfg)
			var entries int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(sp, rules, compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				entries = prog.Stats.TableEntries
			}
			b.ReportMetric(float64(entries), "entries")
		})
	}
}

// BenchmarkFig5cCompileTime regenerates Figure 5c: compile time for the
// ITCH workload (ns/op is the figure's y-axis; entries and multicast
// groups are the §4 headline numbers — the paper reports 21,401 entries
// and 198 groups at 100K subscriptions).
func BenchmarkFig5cCompileTime(b *testing.B) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("subs-%d", n), func(b *testing.B) {
			cfg.Subscriptions = n
			rules := workload.ITCHSubscriptions(cfg)
			var st compiler.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(sp, rules, compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				st = prog.Stats
			}
			b.ReportMetric(float64(st.TableEntries), "entries")
			b.ReportMetric(float64(st.MulticastGroups), "groups")
		})
	}
}

// coldShapes are the two rule shapes the socket benchmark sets up with.
var coldShapes = []struct {
	name string
	cfg  workload.ITCHSubsConfig
}{
	{"10k×2", workload.ITCHSubsConfig{Subscriptions: 10000, Stocks: 100, Hosts: 2, PriceMax: 1000, PriceGrid: 1, Seed: 1}},
	{"20k×200", workload.ITCHSubsConfig{Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1}},
}

// BenchmarkCompileCold is the cost gate of a cold compile at coldShapes —
// 10k Fig. 5c rules over 2 hosts (itch-sparse) and 20k over 200 hosts and a
// 10-wide price grid (subs-churn) — from parsed rules and, as the live update
// path does, from source text. Workers is 1, so allocs/op is a property of
// the code and not of the host's core count, but for source/default, which
// parses and normalizes on every core.
func BenchmarkCompileCold(b *testing.B) {
	sp := workload.ITCHSpec()
	for _, v := range coldShapes {
		rules := workload.ITCHSubscriptions(v.cfg)
		var text strings.Builder
		for _, r := range rules {
			text.WriteString(r.String() + "\n")
		}
		src := text.String()
		for _, from := range []struct {
			name    string
			compile func() (*compiler.Program, error)
		}{
			{"", func() (*compiler.Program, error) { return compiler.Compile(sp, rules, compiler.Options{Workers: 1}) }},
			{"/source", func() (*compiler.Program, error) {
				return compiler.CompileSource(sp, src, compiler.Options{Workers: 1})
			}},
			{"/source/default", func() (*compiler.Program, error) { return compiler.CompileSource(sp, src, compiler.Options{}) }},
		} {
			b.Run(v.name+from.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := from.compile(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func reportFig7(b *testing.B, r *experiments.Fig7Result) {
	b.ReportMetric(float64(r.Camus.Percentile(99).Microseconds()), "camus-p99-µs")
	b.ReportMetric(float64(r.Baseline.Percentile(99).Microseconds()), "baseline-p99-µs")
	b.ReportMetric(float64(r.Camus.Max().Microseconds()), "camus-max-µs")
	b.ReportMetric(float64(r.Baseline.Max().Microseconds()), "baseline-max-µs")
	b.ReportMetric(r.Camus.FractionBelow(20*time.Microsecond)*100, "camus-cdf20µs-%")
	b.ReportMetric(r.Baseline.FractionBelow(20*time.Microsecond)*100, "baseline-cdf20µs-%")
}

// BenchmarkFig7aNasdaqTrace regenerates Figure 7a: end-to-end latency of
// GOOGL messages on the Nasdaq-trace stand-in (0.5% match), switch
// filtering vs software baseline.
func BenchmarkFig7aNasdaqTrace(b *testing.B) {
	var r *experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig7a()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFig7(b, r)
}

// BenchmarkFig7bSyntheticTrace regenerates Figure 7b: the synthetic feed
// (5% match).
func BenchmarkFig7bSyntheticTrace(b *testing.B) {
	var r *experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Fig7b()
		if err != nil {
			b.Fatal(err)
		}
	}
	reportFig7(b, r)
}

// BenchmarkLineRatePipeline backs the §4 line-rate claim: per-message
// switch work must not grow with the installed subscription count (the
// fixed-length pipeline property behind "full switch bandwidth of
// 6.5Tbps").
func BenchmarkLineRatePipeline(b *testing.B) {
	benchLineRate(b, false)
}

// BenchmarkLineRatePipelineTelemetry is the same workload with the full
// telemetry layer enabled (per-table hit/miss counters, register-read and
// packet counters). The acceptance bar is <=5% over the uninstrumented
// run — the per-stage instruments are single atomic adds, matching how a
// real ASIC's counters ride along with the match stages.
func BenchmarkLineRatePipelineTelemetry(b *testing.B) {
	benchLineRate(b, true)
}

func benchLineRate(b *testing.B, instrumented bool) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	feed := workload.GenerateFeed(workload.SyntheticFeedConfig())
	var orders []itch.AddOrder
	for _, p := range feed {
		orders = append(orders, p.Orders...)
	}
	for _, n := range []int{1, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("rules-%d", n), func(b *testing.B) {
			cfg.Subscriptions = n
			prog, err := compiler.Compile(sp, workload.ITCHSubscriptions(cfg), compiler.Options{})
			if err != nil {
				b.Fatal(err)
			}
			pcfg := pipeline.DefaultConfig()
			if instrumented {
				pcfg.Telemetry = telemetry.NewRegistry()
			}
			sw, err := pipeline.New(prog, pcfg)
			if err != nil {
				b.Fatal(err)
			}
			ex, err := itch.NewExtractor(prog)
			if err != nil {
				b.Fatal(err)
			}
			var vals []uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &orders[i%len(orders)]
				vals = ex.Values(o, vals)
				sw.Process(vals, 0)
			}
		})
	}
}

// BenchmarkAblationCompiler compares the resource optimizations of §3.2
// (exact-match lowering, domain compression) and the naive single-table
// encoding the paper rejects, on a 20K-subscription workload.
func BenchmarkAblationCompiler(b *testing.B) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = 20000
	rules := workload.ITCHSubscriptions(cfg)
	for _, v := range []struct {
		name string
		opts compiler.Options
	}{
		{"full", compiler.Options{}},
		{"no-compression", compiler.Options{DisableCompression: true}},
		{"all-tcam", compiler.Options{ForceRangeTables: true, DisableCompression: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var st compiler.Stats
			var naive uint64
			for i := 0; i < b.N; i++ {
				prog, err := compiler.Compile(sp, rules, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				st = prog.Stats
				naive = compiler.NaiveTCAMCost(prog)
			}
			b.ReportMetric(float64(st.TableEntries), "entries")
			b.ReportMetric(float64(st.SRAMEntries), "sram")
			b.ReportMetric(float64(st.TCAMEntries), "tcam")
			b.ReportMetric(float64(naive), "naive-tcam")
		})
	}
}

// BenchmarkAblationFieldOrder compares BDD variable orders (§3.2: order
// choice is NP-hard; the heuristic tests equality discriminators first).
func BenchmarkAblationFieldOrder(b *testing.B) {
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = 5000
	rules := workload.ITCHSubscriptions(cfg)
	for _, v := range []struct {
		name  string
		order []string
	}{
		{"heuristic", nil},
		{"price-first", []string{"price", "stock", "shares"}},
	} {
		b.Run(v.name, func(b *testing.B) {
			var nodes int
			for i := 0; i < b.N; i++ {
				sp := workload.ITCHSpec()
				if v.order == nil {
					if _, err := compiler.ApplySuggestedOrder(sp, rules); err != nil {
						b.Fatal(err)
					}
				} else if err := sp.SetFieldOrder(v.order...); err != nil {
					b.Fatal(err)
				}
				prog, err := compiler.Compile(sp, rules, compiler.Options{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = prog.Stats.BDDNodes
			}
			b.ReportMetric(float64(nodes), "bdd-nodes")
		})
	}
}

// BenchmarkFanoutFeedSplitting quantifies the paper's motivating scenario
// (§4): N subscriber servers, switch filtering vs broadcasting the feed.
func BenchmarkFanoutFeedSplitting(b *testing.B) {
	var pts []experiments.FanoutPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Fanout(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		switch p.Mode {
		case "camus":
			b.ReportMetric(p.FabricMBytes, "camus-egress-MB")
		case "broadcast":
			b.ReportMetric(p.FabricMBytes, "broadcast-egress-MB")
		}
	}
}

// BenchmarkEndToEndSimulator measures the discrete-event testbed itself
// (events per second), to document the substrate's capacity.
func BenchmarkEndToEndSimulator(b *testing.B) {
	feedCfg := workload.NasdaqTraceConfig()
	feedCfg.Duration = 20 * time.Millisecond
	feed := workload.GenerateFeed(feedCfg)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(feed, "", "GOOGL"); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the building blocks.

// BenchmarkBDDBuild measures BDD construction alone, over conjunctions
// resolved once, at the shapes BenchmarkCompileCold compiles: with payload
// sets for terminals (bdd.NewBuilder, as internal/analyze builds) and, as
// …/classes, with the compiler's action classes — compiler.CompileConjs,
// lowering included, the path every compile takes.
func BenchmarkBDDBuild(b *testing.B) {
	sp := workload.ITCHSpec()
	for _, v := range coldShapes {
		rules := workload.ITCHSubscriptions(v.cfg)
		infos, conjs, err := compiler.ResolveConjs(sp, rules, compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fields := make([]bdd.Field, len(infos))
		for i, f := range infos {
			fields[i] = bdd.Field{Name: f.Name, Max: f.Max}
		}
		actions := make([][]lang.Action, len(rules))
		for i, r := range rules {
			actions[i] = r.Actions
		}
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bdd.NewBuilder().Build(fields, conjs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(v.name+"/classes", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compiler.CompileConjs(sp, conjs, actions, compiler.Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileParallel measures the worker-pool speedup of the dynamic
// compiler on the Fig. 5c 100K-subscription ITCH workload: workers-1 is
// the fully serial baseline, workers-max uses every core. The outputs are
// bit-identical (see TestParallelCompileMatchesSerialITCH); only the
// wall-clock should differ.
func BenchmarkCompileParallel(b *testing.B) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = 100000
	rules := workload.ITCHSubscriptions(cfg)
	for _, v := range []struct {
		name    string
		workers int
	}{
		{"workers-1", 1},
		{"workers-max", 0}, // 0 = GOMAXPROCS
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(sp, rules, compiler.Options{Workers: v.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChurnIncremental measures a 1% subscription churn event
// (remove 1%, add 1%, recompile) two ways: a full from-scratch compile of
// the new rule set versus an incremental Session recompile that reuses
// memoized sub-BDDs and persistent payload IDs.
func BenchmarkChurnIncremental(b *testing.B) {
	sp := workload.ITCHSpec()
	for _, n := range []int{10000, 100000} {
		cfg := workload.DefaultITCHSubsConfig()
		cfg.Subscriptions = n
		rules := workload.ITCHSubscriptions(cfg)
		freshCfg := cfg
		freshCfg.Seed = 7777
		fresh := workload.ITCHSubscriptions(freshCfg)
		churn := n / 100

		b.Run(fmt.Sprintf("full/subs-%d", n), func(b *testing.B) {
			// The post-churn rule set, compiled from scratch each time.
			after := append(append([]lang.Rule(nil), rules[churn:]...), fresh[:churn]...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(sp, after, compiler.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("incremental/subs-%d", n), func(b *testing.B) {
			sess := compiler.NewSession(sp, compiler.Options{})
			handles, err := sess.AddRules(rules)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Recompile(); err != nil {
				b.Fatal(err)
			}
			next := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.RemoveRules(handles[:churn]...); err != nil {
					b.Fatal(err)
				}
				add := fresh[next*churn%len(fresh) : next*churn%len(fresh)+churn]
				next++
				nh, err := sess.AddRules(add)
				if err != nil {
					b.Fatal(err)
				}
				handles = append(handles[churn:], nh...)
				if _, err := sess.Recompile(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkITCHDecode measures the zero-alloc Mold/ITCH decode path.
func BenchmarkITCHDecode(b *testing.B) {
	feed := workload.GenerateFeed(workload.SyntheticFeedConfig())
	wire := workload.WirePacket(feed[0], "BENCH", 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := itch.ForEachAddOrder(wire, func(*itch.AddOrder) { n++ }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubscriptionParse measures the language front end.
func BenchmarkSubscriptionParse(b *testing.B) {
	src := "stock == GOOGL && price > 50 && shares < 1000 : fwd(1,2,3)\n"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseSubscriptions(src); err != nil {
			b.Fatal(err)
		}
	}
}
