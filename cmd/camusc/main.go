// Command camusc is the Camus packet-subscription compiler CLI: it takes a
// message-format specification (Fig. 2 syntax) and a subscription rule
// file (Fig. 1 syntax) and emits the static P4 pipeline, the dynamic
// control-plane entries, and resource statistics.
//
// Usage:
//
//	camusc -spec itch.spec -rules subs.txt -out build/
//	camusc -spec itch.spec -rules subs.txt -stats
//	camusc -spec itch.spec -rules subs.txt -dot > bdd.dot
//	camusc -spec itch.spec -rules subs.txt -check
//
// -check runs the camus-vet static analyzer instead of compiling: every
// diagnostic is printed as `file:line:col: severity CAMxxx: msg` (or as
// JSON/SARIF with -json/-sarif) and the exit status is 1 when the rule
// set has error-severity findings (with -strict, warnings too).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"camus/internal/analyze"
	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/p4gen"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "message format specification file (required)")
		rulesPath = flag.String("rules", "", "subscription rules file (required)")
		outDir    = flag.String("out", "", "output directory for camus.p4 and entries.txt")
		stats     = flag.Bool("stats", false, "print compilation statistics")
		dot       = flag.Bool("dot", false, "print the BDD in Graphviz dot form")
		dump      = flag.Bool("dump", false, "print the tables in Figure-4 style")
		noCompr   = flag.Bool("no-compression", false, "disable domain compression")
		noExact   = flag.Bool("no-exact-lowering", false, "disable exact-match lowering")
		plan      = flag.Bool("plan", false, "print the device resource plan")
		order     = flag.String("field-order", "", "comma-separated BDD field order override")
		autoOrder = flag.Bool("auto-order", false, "choose the BDD field order heuristically from the rules")
		explain   = flag.String("explain", "", "trace a packet through the tables, e.g. \"stock=GOOGL,price=55\"")

		check    = flag.Bool("check", false, "statically analyze the rule set instead of compiling (camus-vet)")
		jsonOut  = flag.Bool("json", false, "with -check: emit diagnostics as JSON")
		sarifOut = flag.Bool("sarif", false, "with -check: emit diagnostics as SARIF 2.1.0")
		strict   = flag.Bool("strict", false, "with -check: exit 1 on warnings too")
		stages   = flag.Int("check-stages", 0, "with -check: stage budget override (default: device default)")
		sram     = flag.Int("check-sram", 0, "with -check: SRAM-entries-per-stage budget override")
		tcam     = flag.Int("check-tcam", 0, "with -check: TCAM-entries-per-stage budget override")
	)
	flag.Parse()
	if *specPath == "" || *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	specSrc, err := os.ReadFile(*specPath)
	fatal(err)
	sp, err := spec.Parse(string(specSrc))
	fatal(err)
	if *order != "" {
		fatal(sp.SetFieldOrder(splitComma(*order)...))
	}

	rulesSrc, err := os.ReadFile(*rulesPath)
	fatal(err)

	if *check {
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
		rep := analyze.Source(sp, string(rulesSrc), analyze.Options{Budget: &budget})
		switch {
		case *sarifOut:
			out, err := rep.SARIF(*rulesPath)
			fatal(err)
			fmt.Println(string(out))
		case *jsonOut:
			out, err := rep.JSON()
			fatal(err)
			fmt.Println(string(out))
		default:
			fmt.Print(rep.Text(*rulesPath))
		}
		if rep.HasErrors() || (*strict && rep.Warnings() > 0) {
			os.Exit(1)
		}
		return
	}

	rules, err := lang.ParseRules(string(rulesSrc))
	fatal(err)
	if *autoOrder {
		chosen, err := compiler.ApplySuggestedOrder(sp, rules)
		fatal(err)
		fmt.Fprintf(os.Stderr, "camusc: field order: %v\n", chosen)
	}

	opts := compiler.Options{
		DisableCompression:   *noCompr,
		DisableExactLowering: *noExact,
	}
	prog, err := compiler.Compile(sp, rules, opts)
	fatal(err)

	if *stats {
		fmt.Println(prog.Stats)
	}
	if *plan {
		fmt.Print(pipeline.Plan(prog, pipeline.DefaultConfig()))
	}
	if *dot {
		fmt.Print(prog.Dot())
	}
	if *dump {
		fmt.Print(prog.Dump())
	}
	if *explain != "" {
		values, err := prog.ParseValueAssignment(*explain)
		fatal(err)
		fmt.Printf("packet %s:\n%s", *explain, prog.Trace(values))
	}
	if *outDir != "" {
		fatal(os.MkdirAll(*outDir, 0o755))
		fatal(os.WriteFile(filepath.Join(*outDir, "camus.p4"), []byte(p4gen.GenerateP4(prog)), 0o644))
		fatal(os.WriteFile(filepath.Join(*outDir, "entries.txt"), []byte(p4gen.GenerateEntries(prog)), 0o644))
		fmt.Fprintf(os.Stderr, "wrote %s and %s\n",
			filepath.Join(*outDir, "camus.p4"), filepath.Join(*outDir, "entries.txt"))
	}
	if !*stats && !*dot && !*dump && !*plan && *explain == "" && *outDir == "" {
		fmt.Println(prog.Stats)
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "camusc:", err)
		os.Exit(1)
	}
}
