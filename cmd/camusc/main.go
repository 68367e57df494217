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
//
// camus-vet is the static analyzer for the same files.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/p4gen"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 on success,
// 1 when reading, compiling or writing fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) (status int) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case failure:
			fmt.Fprintln(stderr, "camusc:", r.err)
			status = 1
		default:
			panic(r)
		}
	}()
	fs := flag.NewFlagSet("camusc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath  = fs.String("spec", "", "message format specification file (required)")
		rulesPath = fs.String("rules", "", "subscription rules file (required)")
		outDir    = fs.String("out", "", "output directory for camus.p4 and entries.txt")
		stats     = fs.Bool("stats", false, "print compilation statistics")
		dot       = fs.Bool("dot", false, "print the BDD in Graphviz dot form")
		dump      = fs.Bool("dump", false, "print the tables in Figure-4 style")
		noCompr   = fs.Bool("no-compression", false, "disable domain compression")
		noExact   = fs.Bool("no-exact-lowering", false, "disable exact-match lowering")
		plan      = fs.Bool("plan", false, "print the device resource plan")
		order     = fs.String("field-order", "", "comma-separated BDD field order override")
		autoOrder = fs.Bool("auto-order", false, "choose the BDD field order heuristically from the rules")
		explain   = fs.String("explain", "", "trace a packet through the tables, e.g. \"stock=GOOGL,price=55\"")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *specPath == "" || *rulesPath == "" {
		fs.Usage()
		return 2
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

	rules, err := lang.ParseRules(string(rulesSrc))
	fatal(err)
	if *autoOrder {
		chosen, err := compiler.ApplySuggestedOrder(sp, rules)
		fatal(err)
		fmt.Fprintf(stderr, "camusc: field order: %v\n", chosen)
	}

	opts := compiler.Options{
		DisableCompression:   *noCompr,
		DisableExactLowering: *noExact,
	}
	pass, err := compiler.Observe(context.Background(), sp, compiler.Source{Rules: rules}, opts, nil)
	fatal(err)
	prog, err := pass.Compile()
	fatal(err)

	if *stats {
		fmt.Fprintln(stdout, prog.Stats)
	}
	if *plan {
		fmt.Fprint(stdout, pipeline.Plan(prog, pipeline.DefaultConfig()))
	}
	if *dot {
		fmt.Fprint(stdout, pass.Dot())
	}
	if *dump {
		fmt.Fprint(stdout, prog.Dump())
	}
	if *explain != "" {
		values, err := prog.ParseValueAssignment(*explain)
		fatal(err)
		fmt.Fprintf(stdout, "packet %s:\n%s", *explain, pass.Trace(values))
	}
	if *outDir != "" {
		fatal(os.MkdirAll(*outDir, 0o755))
		fatal(os.WriteFile(filepath.Join(*outDir, "camus.p4"), []byte(p4gen.GenerateP4(prog)), 0o644))
		fatal(os.WriteFile(filepath.Join(*outDir, "entries.txt"), []byte(p4gen.GenerateEntries(prog)), 0o644))
		fmt.Fprintf(stderr, "wrote %s and %s\n",
			filepath.Join(*outDir, "camus.p4"), filepath.Join(*outDir, "entries.txt"))
	}
	if !*stats && !*dot && !*dump && !*plan && *explain == "" && *outDir == "" {
		fmt.Fprintln(stdout, prog.Stats)
	}
	return 0
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

// failure carries an error from fatal to run, which reports it.
type failure struct{ err error }

func fatal(err error) {
	if err != nil {
		panic(failure{err})
	}
}
