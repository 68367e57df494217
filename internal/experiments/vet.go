package experiments

import (
	"fmt"
	"time"

	"camus/internal/analyze"
	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// VetPoint is one row of the static-analysis experiment: at one Fig. 5c
// subscription scale, what camus-vet's pass and a compile each cost, and the
// plan of the program the pass compiled — CAM006's estimate, which is the
// compile's plan by construction (TestEstimateIsThePlanOfTheCompile in
// internal/analyze).
type VetPoint struct {
	Subscriptions int
	AnalyzeMs     float64
	CompileMs     float64
	Diagnostics   int

	Stages, SRAM, TCAM int
}

// VetEstimate — Goal: what does the admission gate cost next to the compile it guards, and what does the rule set need from the device?
// Success criterion: the analysis, which includes that compile, costs a small multiple of it at every Fig. 5c workload size.
func VetEstimate(sizes []int, seed int64) ([]VetPoint, error) {
	if sizes == nil {
		sizes = Fig5cSweep
	}
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Seed = seed
	budget := pipeline.DefaultConfig()
	var out []VetPoint
	for _, n := range sizes {
		cfg.Subscriptions = n
		rules := workload.ITCHSubscriptions(cfg)

		start := time.Now()
		rep := analyze.Rules(sp, rules, analyze.Options{Budget: &budget})
		analyzeMs := float64(time.Since(start).Microseconds()) / 1000
		if rep.Estimate == nil {
			return nil, fmt.Errorf("vet n=%d: no resource estimate (diagnostics: %v)", n, rep.Diagnostics)
		}

		start = time.Now()
		if _, err := compiler.Compile(sp, rules, compiler.Options{}); err != nil {
			return nil, fmt.Errorf("vet n=%d: %w", n, err)
		}
		compileMs := float64(time.Since(start).Microseconds()) / 1000

		out = append(out, VetPoint{
			Subscriptions: n,
			AnalyzeMs:     analyzeMs,
			CompileMs:     compileMs,
			Diagnostics:   len(rep.Diagnostics),
			Stages:        rep.Estimate.StagesUsed,
			SRAM:          rep.Estimate.TotalSRAM,
			TCAM:          rep.Estimate.TotalTCAM,
		})
	}
	return out, nil
}

// FormatVet renders the experiment as an aligned table.
func FormatVet(pts []VetPoint) string {
	var b []byte
	b = append(b, "camus-vet analysis vs compile (Fig. 5c workload)\n"...)
	b = append(b, fmt.Sprintf("%-14s %10s %10s %7s %7s %7s\n",
		"subscriptions", "analyze", "compile", "stages", "sram", "tcam")...)
	for _, p := range pts {
		b = append(b, fmt.Sprintf("%-14d %8.1fms %8.1fms %7d %7d %7d\n",
			p.Subscriptions, p.AnalyzeMs, p.CompileMs, p.Stages, p.SRAM, p.TCAM)...)
	}
	return string(b)
}
