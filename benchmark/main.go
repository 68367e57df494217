// Command benchmark is the repository's benchmark: it drives the
// production dataplane over loopback sockets, workload by workload, checks
// every delivery against its own oracle, and prints the metrics named in
// BENCHMARK.json. README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// environment is stamped into every result file: numbers from this
// harness mean nothing without the host they were taken on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Network    string `json:"network"`
}

func env() environment {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     sha,
		Network:    "loopback, not a link",
	}
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed of the generated rules and feed")
		seconds  = flag.Float64("seconds", 10, "length of the timed socket phases, half paced and half closed-loop")
		traced   = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "append the full result (quartiles, counts, environment) to this file as one JSON line")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans to this file")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
		manifest = flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest, for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(*manifest, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	for _, w := range workloads(false) {
		if w.name != *name {
			continue
		}
		res, err := runWorkload(&w, *seed, *seconds, *traced == 1, false)
		if err != nil {
			fatal(err)
		}
		report(res, *out, *traceOut)
		return
	}
	fatal(fmt.Errorf("unknown workload %q", *name))
}

// report prints a run's verdict (and a traced run's ledger) on standard
// error, writes the files asked for, and ends with the contract's line on
// standard output: values and units only.
func report(res *result, out, traceOut string) {
	fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", res.Workload, res.Seed, res.Verdict)
	if res.tracer != nil {
		printLedger(os.Stderr, res)
		if traceOut != "" {
			if err := res.tracer.write(traceOut); err != nil {
				fatal(err)
			}
		}
	}
	if out != "" {
		if err := appendResult(out, res); err != nil {
			fatal(err)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for k, m := range res.Metrics {
		line.Metrics[k] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func appendResult(path string, res *result) error {
	res.Env = env()
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
