// Command camus-bench regenerates the tables and figures of the paper's
// evaluation (§4) on the simulated substrate and prints the series the
// paper plots. It is the paper-figure harness only: changes are gated by
// the socket benchmark under benchmark/, behaviour by go test.
//
// Every figure's output begins with a provenance line (cpus, GOMAXPROCS,
// Go version, GOOS/GOARCH, git revision, seed), so a table pasted into
// EXPERIMENTS.md says where it was taken. The revision is the one the Go
// toolchain stamped into the binary: build with `go build`, not `go run`.
//
// Usage (`camus-bench -h` lists the figures, from the figures table):
//
//	camus-bench -fig all
//	camus-bench -fig 5c -sizes 1000,10000,100000
//	camus-bench -fig 7a -csv
//	camus-bench -fig fabric -subscribers 8 -leaves 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"camus/internal/experiments"
	"camus/internal/pipeline"
)

// options are the parsed flags a figure may read.
type options struct {
	sizes       []int // nil: the figure's own default sweep
	seed        int64
	csv         bool
	subscribers int
	leaves      int
}

// figure is one entry of the evaluation. run prints the aligned table,
// or the CSV series when o.csv is set (only asked of hasCSV figures).
type figure struct {
	name   string
	hasCSV bool
	run    func(w io.Writer, o options) error
}

// figures is the one list dispatch, the flag help and `-fig all` share.
var figures = []figure{
	series("5a",
		func(o options) ([]experiments.EntriesPoint, error) { return experiments.Fig5a(o.seed) },
		func(pts []experiments.EntriesPoint) string {
			return experiments.FormatEntriesSeries("Figure 5a: table entries vs number of subscriptions", "subscriptions", pts)
		},
		"subscriptions,entries", entriesRow),
	series("5b",
		func(o options) ([]experiments.EntriesPoint, error) { return experiments.Fig5b(o.seed) },
		func(pts []experiments.EntriesPoint) string {
			return experiments.FormatEntriesSeries("Figure 5b: table entries vs predicates per subscription", "predicates", pts)
		},
		"predicates,entries", entriesRow),
	series("5c",
		func(o options) ([]experiments.Fig5cPoint, error) { return experiments.Fig5c(o.sizes, o.seed) },
		experiments.FormatFig5c,
		"subscriptions,compile_seconds,entries,groups",
		func(p experiments.Fig5cPoint) string {
			return fmt.Sprintf("%d,%.3f,%d,%d", p.Subscriptions, p.CompileTime.Seconds(), p.Entries, p.Groups)
		}),
	fig7("7a", "Figure 7a (Nasdaq trace, 0.5% match)", experiments.Fig7a),
	fig7("7b", "Figure 7b (synthetic feed, 5% match)", experiments.Fig7b),
	series("throughput",
		func(o options) ([]experiments.ThroughputPoint, error) {
			return experiments.Throughput(o.sizes, 0, o.seed)
		},
		func(pts []experiments.ThroughputPoint) string {
			return experiments.FormatThroughput(pts, pipeline.DefaultConfig())
		},
		"rules,ns_per_msg,msgs_per_sec",
		func(p experiments.ThroughputPoint) string {
			return fmt.Sprintf("%d,%.1f,%.0f", p.Rules, p.NsPerMsg, p.MsgsPerSec)
		}),
	series("ablation",
		func(o options) ([]experiments.AblationPoint, error) { return experiments.Ablation(20000, o.seed) },
		experiments.FormatAblation, "", nil),
	series("order",
		func(o options) ([]experiments.OrderPoint, error) { return experiments.OrderAblation(20000, o.seed) },
		experiments.FormatOrderAblation, "", nil),
	series("fanout",
		func(options) ([]experiments.FanoutPoint, error) { return experiments.Fanout(16) },
		experiments.FormatFanout, "", nil),
	series("fabric",
		func(o options) ([]experiments.FabricPoint, error) {
			return experiments.FabricCovering(o.subscribers, o.leaves, o.seed)
		},
		experiments.FormatFabric,
		"mode,fabric_mb,host_mb,uplink_msgs,downlink_msgs,delivered_msgs,leaf_entries,spine_entries,entry_compression,recovered,worst_p99_us",
		func(p experiments.FabricPoint) string {
			return fmt.Sprintf("%s,%.3f,%.3f,%d,%d,%d,%d,%d,%.2f,%d,%.1f",
				p.Mode, p.InterSwitchMB, p.HostMB, p.UplinkMsgs, p.DownlinkMsgs, p.DeliveredMsgs,
				p.LeafEntries, p.SpineEntries, p.EntryCompression(), p.Recovered,
				float64(p.WorstP99.Nanoseconds())/1000)
		}),
	series("vet",
		func(o options) ([]experiments.VetPoint, error) { return experiments.VetEstimate(o.sizes, o.seed) },
		experiments.FormatVet,
		"subscriptions,analyze_ms,compile_ms,stages,sram,tcam",
		func(p experiments.VetPoint) string {
			return fmt.Sprintf("%d,%.1f,%.1f,%d,%d,%d", p.Subscriptions, p.AnalyzeMs, p.CompileMs, p.Stages, p.SRAM, p.TCAM)
		}),
}

func entriesRow(p experiments.EntriesPoint) string { return fmt.Sprintf("%d,%d", p.X, p.Entries) }

// series builds the figure whose points get computes: table renders them
// aligned, header and row render the CSV form (header "" when the figure
// has none).
func series[P any](name string, get func(options) ([]P, error), table func([]P) string, header string, row func(P) string) figure {
	return figure{name, header != "", func(w io.Writer, o options) error {
		pts, err := get(o)
		if err != nil {
			return err
		}
		if !o.csv {
			fmt.Fprint(w, table(pts))
			return nil
		}
		fmt.Fprintln(w, header)
		for _, p := range pts {
			fmt.Fprintln(w, row(p))
		}
		return nil
	}}
}

// fig7 builds a Figure 7 entry: two latency CDFs, 100 points each as CSV.
func fig7(name, title string, get func() (*experiments.Fig7Result, error)) figure {
	return figure{name, true, func(w io.Writer, o options) error {
		r, err := get()
		if err != nil {
			return err
		}
		if !o.csv {
			fmt.Fprint(w, experiments.FormatFig7(title, r))
			return nil
		}
		fmt.Fprint(w, experiments.FormatFig7CSV(r, 100))
		return nil
	}}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 on success,
// 1 when a figure fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var names, csvNames []string
	for _, f := range figures {
		names = append(names, f.name)
		if f.hasCSV {
			csvNames = append(csvNames, f.name)
		}
	}
	choices := strings.Join(names, ", ") + ", or all"
	csvChoices := strings.Join(csvNames, ", ")

	fs := flag.NewFlagSet("camus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o     options
		fig   = fs.String("fig", "all", "figure to regenerate: "+choices)
		sizes = fs.String("sizes", "", "comma-separated subscription counts (overrides the 5c, throughput and vet sweeps)")
	)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV series instead of aligned tables ("+csvChoices+")")
	fs.IntVar(&o.subscribers, "subscribers", 16, "subscriber hosts for -fig fabric")
	fs.IntVar(&o.leaves, "leaves", 2, "leaf switches for -fig fabric")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "camus-bench: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return usage("-sizes: %q is not a positive subscription count", s)
			}
			o.sizes = append(o.sizes, n)
		}
	}

	selected := figures
	if *fig != "all" {
		selected = nil
		for _, f := range figures {
			if f.name == *fig {
				selected = []figure{f}
			}
		}
		if selected == nil {
			return usage("unknown figure %q (want %s)", *fig, choices)
		}
	}
	if o.csv {
		for _, f := range selected {
			if !f.hasCSV {
				return usage("figure %q has no CSV form (-csv works with %s)", f.name, csvChoices)
			}
		}
	}

	for _, f := range selected {
		fmt.Fprintln(stdout, provenance(o))
		if err := f.run(stdout, o); err != nil {
			fmt.Fprintln(stderr, "camus-bench:", err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// provenance is the line that stamps a figure with the host and build it
// was taken on; a `#` comment under -csv so the series still parses.
func provenance(o options) string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value[:min(12, len(s.Value))]
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	line := fmt.Sprintf("camus-bench: cpus=%d GOMAXPROCS=%d %s %s/%s git=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev+dirty, o.seed)
	if o.csv {
		return "# " + line
	}
	return line
}
