// Command camus-vet statically analyzes subscription rule files against
// a message-format specification, installing nothing. It runs the
// compiler's front end with the analyzer watching every rule, then compiles
// the rules it kept to price them against a device budget (CAM006;
// -no-resources stops after the front end). It is the command-line face of
// internal/analyze — the same pass the control plane's admission gate runs.
//
// Usage:
//
//	camus-vet -spec itch.spec rules1.txt rules2.txt ...
//	camus-vet -spec itch.spec -json rules.txt
//	camus-vet -spec itch.spec -sarif rules.txt > findings.sarif
//
// Each diagnostic prints as `file:line:col: severity CAMxxx: msg`. The
// exit status is 0 when every file is clean (per policy), 1 when any
// file has error-severity findings (with -strict, warnings too), and 2
// on usage or I/O errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"camus/internal/analyze"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

func main() {
	var (
		specPath = flag.String("spec", "", "message format specification file (required)")
		jsonOut  = flag.Bool("json", false, "emit diagnostics as JSON (array of {file, report})")
		sarifOut = flag.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0 (single rule file only)")
		strict   = flag.Bool("strict", false, "exit 1 on warnings too")
		noRes    = flag.Bool("no-resources", false, "stop after the front end: compile nothing, skip CAM006")
		stages   = flag.Int("stages", 0, "stage budget override (default: device default)")
		sram     = flag.Int("sram", 0, "SRAM-entries-per-stage budget override")
		tcam     = flag.Int("tcam", 0, "TCAM-entries-per-stage budget override")
		maxPairs = flag.Int("max-pairs", 0, "pairwise-analysis budget (0 = default)")
	)
	flag.Parse()
	if *specPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: camus-vet -spec <spec file> [flags] <rule file>...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *sarifOut && flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "camus-vet: -sarif supports exactly one rule file")
		os.Exit(2)
	}

	specSrc, err := os.ReadFile(*specPath)
	fatal(err)
	sp, err := spec.Parse(string(specSrc))
	fatal(err)

	budget := pipeline.DefaultConfig()
	if *stages > 0 {
		budget.Stages = *stages
	}
	if *sram > 0 {
		budget.SRAMPerStage = *sram
	}
	if *tcam > 0 {
		budget.TCAMPerStage = *tcam
	}
	opts := analyze.Options{Budget: &budget, SkipResources: *noRes, MaxPairs: *maxPairs}

	type fileReport struct {
		File   string          `json:"file"`
		Report *analyze.Report `json:"report"`
	}
	var reports []fileReport
	rejected := false
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		fatal(err)
		rep := analyze.Source(sp, string(src), opts)
		reports = append(reports, fileReport{File: path, Report: rep})
		if rep.HasErrors() || (*strict && rep.Warnings() > 0) {
			rejected = true
		}
	}

	switch {
	case *sarifOut:
		out, err := reports[0].Report.SARIF(reports[0].File)
		fatal(err)
		fmt.Println(string(out))
	case *jsonOut:
		out, err := json.MarshalIndent(reports, "", "  ")
		fatal(err)
		fmt.Println(string(out))
	default:
		for _, fr := range reports {
			fmt.Print(fr.Report.Text(fr.File))
		}
	}
	if rejected {
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-vet:", err)
		os.Exit(2)
	}
}
