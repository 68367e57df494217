// Command camus-bench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated substrate and prints the same series
// the paper plots.
//
// Usage:
//
//	camus-bench -fig all
//	camus-bench -fig 5a
//	camus-bench -fig 5c -sizes 1000,10000,100000
//	camus-bench -fig 7a -csv
//	camus-bench -churn -json
//	camus-bench -dataplane -json
//	camus-bench -scenarios -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"camus/internal/dataplane"
	"camus/internal/experiments"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 5a, 5b, 5c, 7a, 7b, throughput, ablation, order, churn, dataplane, scenarios, vet, fabric, all")
		sizes    = flag.String("sizes", "", "comma-separated subscription counts (5c/throughput/churn override)")
		seed     = flag.Int64("seed", 1, "workload seed")
		csv      = flag.Bool("csv", false, "emit CSV series instead of aligned tables")
		churn    = flag.Bool("churn", false, "shorthand for -fig churn: compile-pipeline benchmark (serial/parallel, full/incremental)")
		churnPct = flag.Float64("churn-pct", 1, "percentage of subscriptions replaced per churn event")
		jsonOut  = flag.Bool("json", false, "emit the churn/dataplane benchmark as JSON (BENCH_*.json format)")
		dplane   = flag.Bool("dataplane", false, "shorthand for -fig dataplane: software-dataplane worker-scaling benchmark")
		workers  = flag.String("workers", "", "comma-separated worker counts for -dataplane (default 1,2,4,8)")
		rules    = flag.Int("rules", 10000, "installed subscriptions for -dataplane")
		packets  = flag.Int("packets", 200000, "replayed ingress datagrams for -dataplane")
		ingress  = flag.String("ingress", "auto", "ingress mode for -dataplane: auto, shared, reuseport, reshard")
		fanoutB  = flag.Bool("fanout", false, "with -dataplane: add the multicast egress fanout series (encode-once group egress vs subscriber count)")
		portsF   = flag.String("ports", "", "comma-separated subscriber counts for the -fanout series (default 100,1000,10000)")
		fanoutG  = flag.Int("fanout-groups", 20, "compiled multicast groups for the -fanout series")
		scenB    = flag.Bool("scenarios", false, "shorthand for -fig scenarios: stateful scenario workloads over keyed register banks")
		keysF    = flag.Int("keys", 256, "distinct flow keys for -scenarios")
		fabricB  = flag.Bool("fabric", false, "shorthand for -fig fabric: two-hop fabric covering-compression figure")
		subs     = flag.Int("subscribers", 16, "subscriber hosts for -fabric")
		leaves   = flag.Int("leaves", 2, "leaf switches for -fabric")
	)
	flag.Parse()
	if *churn {
		*fig = "churn"
	}
	if *dplane || *fanoutB {
		*fig = "dataplane"
	}
	if *scenB {
		*fig = "scenarios"
	}
	if *fabricB {
		*fig = "fabric"
	}
	if *churnPct <= 0 {
		*churnPct = 1 // matches the experiment's own clamp, keeps the header honest
	}

	var sizeList []int
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			fatal(err)
			sizeList = append(sizeList, n)
		}
	}

	run := func(name string) {
		switch name {
		case "5a":
			pts, err := experiments.Fig5a(*seed)
			fatal(err)
			if *csv {
				fmt.Println("subscriptions,entries")
				for _, p := range pts {
					fmt.Printf("%d,%d\n", p.X, p.Entries)
				}
				return
			}
			fmt.Print(experiments.FormatEntriesSeries(
				"Figure 5a: table entries vs number of subscriptions", "subscriptions", pts))
		case "5b":
			pts, err := experiments.Fig5b(*seed)
			fatal(err)
			if *csv {
				fmt.Println("predicates,entries")
				for _, p := range pts {
					fmt.Printf("%d,%d\n", p.X, p.Entries)
				}
				return
			}
			fmt.Print(experiments.FormatEntriesSeries(
				"Figure 5b: table entries vs predicates per subscription", "predicates", pts))
		case "5c":
			pts, err := experiments.Fig5c(sizeList, *seed)
			fatal(err)
			if *csv {
				fmt.Println("subscriptions,compile_seconds,entries,groups")
				for _, p := range pts {
					fmt.Printf("%d,%.3f,%d,%d\n", p.Subscriptions, p.CompileTime.Seconds(), p.Entries, p.Groups)
				}
				return
			}
			fmt.Print(experiments.FormatFig5c(pts))
		case "7a":
			r, err := experiments.Fig7a()
			fatal(err)
			printFig7(*csv, "Figure 7a (Nasdaq trace, 0.5% match)", r)
		case "7b":
			r, err := experiments.Fig7b()
			fatal(err)
			printFig7(*csv, "Figure 7b (synthetic feed, 5% match)", r)
		case "throughput":
			pts, err := experiments.Throughput(sizeList, 0, *seed)
			fatal(err)
			if *csv {
				fmt.Println("rules,ns_per_msg,msgs_per_sec")
				for _, p := range pts {
					fmt.Printf("%d,%.1f,%.0f\n", p.Rules, p.NsPerMsg, p.MsgsPerSec)
				}
				return
			}
			fmt.Print(experiments.FormatThroughput(pts, pipeline.DefaultConfig()))
		case "ablation":
			pts, err := experiments.Ablation(20000, *seed)
			fatal(err)
			fmt.Print(experiments.FormatAblation(pts))
		case "order":
			pts, err := experiments.OrderAblation(20000, *seed)
			fatal(err)
			fmt.Print(experiments.FormatOrderAblation(pts))
		case "fanout":
			pts, err := experiments.Fanout(16)
			fatal(err)
			fmt.Print(experiments.FormatFanout(pts))
		case "fabric":
			pts, err := experiments.FabricCovering(*subs, *leaves, *seed)
			fatal(err)
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				type compressed struct {
					EntryCompression float64 `json:"entry_compression"`
					BytesRatio       float64 `json:"bytes_ratio_vs_broadcast"`
				}
				summary := compressed{}
				if len(pts) == 2 {
					summary.EntryCompression = pts[0].EntryCompression()
					if pts[0].InterSwitchMB > 0 {
						summary.BytesRatio = pts[1].InterSwitchMB / pts[0].InterSwitchMB
					}
				}
				fatal(enc.Encode(struct {
					GOOS        string                    `json:"goos"`
					GOARCH      string                    `json:"goarch"`
					CPUs        int                       `json:"cpus"`
					Seed        int64                     `json:"seed"`
					Subscribers int                       `json:"subscribers"`
					Leaves      int                       `json:"leaves"`
					Points      []experiments.FabricPoint `json:"points"`
					Compression compressed                `json:"compression"`
				}{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), *seed, *subs, *leaves, pts, summary}))
				return
			}
			if *csv {
				fmt.Println("mode,fabric_mb,host_mb,uplink_msgs,downlink_msgs,delivered_msgs,leaf_entries,spine_entries,entry_compression,recovered,worst_p99_us")
				for _, p := range pts {
					fmt.Printf("%s,%.3f,%.3f,%d,%d,%d,%d,%d,%.2f,%d,%.1f\n",
						p.Mode, p.InterSwitchMB, p.HostMB, p.UplinkMsgs, p.DownlinkMsgs, p.DeliveredMsgs,
						p.LeafEntries, p.SpineEntries, p.EntryCompression(), p.Recovered,
						float64(p.WorstP99.Nanoseconds())/1000)
				}
				return
			}
			fmt.Print(experiments.FormatFabric(pts))
		case "vet":
			pts, err := experiments.VetEstimate(sizeList, *seed)
			fatal(err)
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				fatal(enc.Encode(struct {
					Seed     int64                  `json:"seed"`
					Analysis []experiments.VetPoint `json:"analysis"`
				}{*seed, pts}))
				return
			}
			if *csv {
				fmt.Println("subscriptions,analyze_ms,compile_ms,predicted_sram,actual_sram,predicted_tcam,actual_tcam,exact")
				for _, p := range pts {
					fmt.Printf("%d,%.1f,%.1f,%d,%d,%d,%d,%v\n",
						p.Subscriptions, p.AnalyzeMs, p.CompileMs,
						p.PredictedSRAM, p.ActualSRAM, p.PredictedTCAM, p.ActualTCAM, p.Exact)
				}
				return
			}
			fmt.Print(experiments.FormatVet(pts))
		case "dataplane":
			var workerList []int
			if *workers != "" {
				for _, s := range strings.Split(*workers, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(s))
					fatal(err)
					workerList = append(workerList, n)
				}
			}
			mode, err := dataplane.ParseIngressMode(*ingress)
			fatal(err)
			pts, err := experiments.DataplaneThroughput(experiments.DataplaneConfig{
				Workers:     workerList,
				Rules:       *rules,
				Packets:     *packets,
				Seed:        *seed,
				IngressMode: mode,
			})
			fatal(err)
			var fanoutPts []experiments.EgressFanoutPoint
			if *fanoutB {
				var portList []int
				if *portsF != "" {
					for _, s := range strings.Split(*portsF, ",") {
						n, err := strconv.Atoi(strings.TrimSpace(s))
						fatal(err)
						portList = append(portList, n)
					}
				}
				fanoutPts, err = experiments.DataplaneFanout(experiments.EgressFanoutConfig{
					Ports:   portList,
					Groups:  *fanoutG,
					Packets: *packets,
					Seed:    *seed,
				})
				fatal(err)
			}
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				fatal(enc.Encode(struct {
					GOOS    string                          `json:"goos"`
					GOARCH  string                          `json:"goarch"`
					CPUs    int                             `json:"cpus"`
					Rules   int                             `json:"rules"`
					Seed    int64                           `json:"seed"`
					Ingress string                          `json:"ingress_mode"`
					Points  []experiments.DataplanePoint    `json:"points"`
					Fanout  []experiments.EgressFanoutPoint `json:"fanout,omitempty"`
				}{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), *rules, *seed,
					dataplane.ResolveIngressMode(mode).String(), pts, fanoutPts}))
				return
			}
			if *csv {
				fmt.Println("workers,batch,ingress_mode,packets_per_sec,ns_per_packet,ns_per_msg,wall_packets_per_sec,resharded,allocs_per_op,mb_per_sec")
				for _, p := range pts {
					fmt.Printf("%d,%d,%s,%.0f,%.1f,%.1f,%.0f,%d,%.3f,%.1f\n",
						p.Workers, p.Batch, p.IngressMode, p.PacketsPerSec, p.NsPerPacket, p.NsPerMsg,
						p.WallPacketsPerSec, p.Resharded, p.AllocsPerOp, p.MBPerSec)
				}
				if *fanoutB {
					fmt.Println("ports,groups,fanout,proc_ns_per_packet,encode_once_ratio,group_bytes_saved,allocs_per_op")
					for _, p := range fanoutPts {
						fmt.Printf("%d,%d,%d,%.1f,%.4f,%d,%.3f\n",
							p.Ports, p.Groups, p.Fanout, p.ProcNsPerPacket,
							p.EncodeOnceRatio, p.GroupBytesSaved, p.AllocsPerOp)
					}
				}
				return
			}
			fmt.Print(experiments.FormatDataplane(pts))
			if *fanoutB {
				fmt.Println()
				fmt.Print(experiments.FormatEgressFanout(fanoutPts))
			}
		case "scenarios":
			var workerList []int
			if *workers != "" {
				for _, s := range strings.Split(*workers, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(s))
					fatal(err)
					workerList = append(workerList, n)
				}
			}
			pts, err := experiments.ScenarioSweep(experiments.ScenarioConfig{
				Workers: workerList,
				Packets: *packets,
				Keys:    *keysF,
				Seed:    *seed,
			})
			fatal(err)
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				fatal(enc.Encode(struct {
					GOOS    string                      `json:"goos"`
					GOARCH  string                      `json:"goarch"`
					CPUs    int                         `json:"cpus"`
					Seed    int64                       `json:"seed"`
					Keys    int                         `json:"keys"`
					Packets int                         `json:"packets"`
					Points  []experiments.ScenarioPoint `json:"points"`
				}{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), *seed, *keysF, *packets, pts}))
				return
			}
			if *csv {
				fmt.Println("scenario,workers,packets_per_sec,ns_per_packet,wall_packets_per_sec,forwarded,alerts,updates,evict_lossy,allocs_per_op")
				for _, p := range pts {
					fmt.Printf("%s,%d,%.0f,%.1f,%.0f,%d,%d,%d,%d,%.3f\n",
						p.Scenario, p.Workers, p.PacketsPerSec, p.NsPerPacket,
						p.WallPacketsPerSec, p.Forwarded, p.Alerts, p.Updates, p.EvictLossy, p.AllocsPerOp)
				}
				return
			}
			fmt.Print(experiments.FormatScenarios(pts))
		case "churn":
			reg := telemetry.NewRegistry()
			pts, err := experiments.ChurnInstrumented(sizeList, *churnPct, *seed, reg)
			fatal(err)
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				// Telemetry is the same Snapshot schema a live switch
				// serves at /debug/camus, so bench output and production
				// metrics can be diffed directly.
				fatal(enc.Encode(struct {
					GOOS      string                   `json:"goos"`
					GOARCH    string                   `json:"goarch"`
					CPUs      int                      `json:"cpus"`
					ChurnPct  float64                  `json:"churn_pct"`
					Seed      int64                    `json:"seed"`
					Points    []experiments.ChurnPoint `json:"points"`
					Telemetry telemetry.Snapshot       `json:"telemetry"`
				}{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), *churnPct, *seed, pts, reg.Snapshot()}))
				return
			}
			if *csv {
				fmt.Println("subscriptions,churn_rules,workers,serial_ms,parallel_ms,full_ms,inc_uniform_ms,inc_localized_ms,delta_writes,entries")
				for _, p := range pts {
					fmt.Printf("%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d\n",
						p.Subscriptions, p.ChurnRules, p.Workers, p.SerialCompileMS, p.ParallelCompileMS,
						p.FullRecompileMS, p.IncrementalUniformMS, p.IncrementalLocalizedMS, p.DeltaWrites, p.InstalledEntries)
				}
				return
			}
			fmt.Print(experiments.FormatChurn(pts, *churnPct))
		default:
			fmt.Fprintf(os.Stderr, "camus-bench: unknown figure %q\n", name)
			os.Exit(2)
		}
		fmt.Println()
	}

	if *fig == "all" {
		for _, name := range []string{"5a", "5b", "5c", "7a", "7b", "throughput", "ablation", "order", "fanout", "fabric"} {
			run(name)
		}
		return
	}
	run(*fig)
}

func printFig7(csv bool, name string, r *experiments.Fig7Result) {
	if csv {
		fmt.Println("curve,latency_us,cdf")
		for _, pt := range r.Camus.CDF(100) {
			fmt.Printf("camus,%.3f,%.4f\n", float64(pt.X.Nanoseconds())/1000, pt.P)
		}
		for _, pt := range r.Baseline.CDF(100) {
			fmt.Printf("baseline,%.3f,%.4f\n", float64(pt.X.Nanoseconds())/1000, pt.P)
		}
		return
	}
	fmt.Print(experiments.FormatFig7(name, r))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-bench:", err)
		os.Exit(1)
	}
}
