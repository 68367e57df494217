// Command camus-sim runs the end-to-end latency experiment of §4 on the
// discrete-event testbed: a publisher streams a market-data feed through a
// switch to a subscriber, once with Camus switch filtering and once with
// the software baseline, and prints the latency CDFs (Figure 7). It is
// experiments.Fig7 with the feed, the rules and the target as flags.
//
// Usage:
//
//	camus-sim -feed nasdaq
//	camus-sim -feed synthetic -subs "stock == GOOGL : fwd(1)"
//	camus-sim -feed nasdaq -cdf 20
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"camus/internal/experiments"
	"camus/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 on success,
// 1 when the experiment fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("camus-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		feedKind = fs.String("feed", "nasdaq", "feed: nasdaq or synthetic")
		feedFile = fs.String("feedfile", "", "replay a feed file written by itchgen instead of generating one")
		subs     = fs.String("subs", "", "subscription rules for the subscriber on port 1 (default: stock == <target> : fwd(1))")
		target   = fs.String("target", "GOOGL", "symbol whose latency is measured")
		seed     = fs.Int64("seed", 0, "feed seed override (0 = preset)")
		cdfN     = fs.Int("cdf", 0, "also print an N-point CDF per curve")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	var feedCfg workload.FeedConfig
	switch *feedKind {
	case "nasdaq":
		feedCfg = workload.NasdaqTraceConfig()
	case "synthetic":
		feedCfg = workload.SyntheticFeedConfig()
	default:
		fmt.Fprintf(stderr, "camus-sim: unknown feed %q\n", *feedKind)
		return 2
	}
	if *seed != 0 {
		feedCfg.Seed = *seed
	}
	feedCfg.TargetSymbol = *target

	fail := func(err error) int {
		fmt.Fprintln(stderr, "camus-sim:", err)
		return 1
	}
	var feed []workload.FeedPacket
	if *feedFile != "" {
		f, err := os.Open(*feedFile)
		if err != nil {
			return fail(err)
		}
		feed, err = workload.ReadFeed(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
	} else {
		feed = workload.GenerateFeed(feedCfg)
	}
	r, err := experiments.Fig7(feed, *subs, *target)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, experiments.FormatFig7(fmt.Sprintf("%s feed, target %s", *feedKind, *target), r))

	if *cdfN > 0 {
		fmt.Fprint(stdout, "\n", experiments.FormatFig7CSV(r, *cdfN))
	}
	return 0
}
