package experiments

import (
	"fmt"
	"time"

	"camus/internal/analyze"
	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// VetPoint is one row of the static-analysis estimation experiment: at
// one Fig. 5c subscription scale, what camus-vet predicts the rule set
// will demand from the device, what an actual compile + table plan
// demands, and what each costs. Because the analyzer's CAM006 check is
// a dry-run of the real compiler (not a model), predicted and actual
// must agree exactly — the experiment exists to demonstrate that and to
// price the admission gate against the compile it guards.
type VetPoint struct {
	Subscriptions int
	AnalyzeMs     float64
	CompileMs     float64
	Diagnostics   int

	PredictedStages int
	PredictedSRAM   int
	PredictedTCAM   int
	ActualStages    int
	ActualSRAM      int
	ActualTCAM      int
	Exact           bool // predicted == actual on every axis
}

// VetEstimate — Goal: is camus-vet's resource estimate the compiled program's table plan, and what does the admission gate cost next to the compile it guards?
// Success criterion: predicted stages, SRAM and TCAM equal the actual plan exactly at every Fig. 5c workload size.
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
		prog, err := compiler.Compile(sp, rules, compiler.Options{})
		if err != nil {
			return nil, fmt.Errorf("vet n=%d: %w", n, err)
		}
		actual := pipeline.Plan(prog, budget)
		compileMs := float64(time.Since(start).Microseconds()) / 1000

		p := VetPoint{
			Subscriptions:   n,
			AnalyzeMs:       analyzeMs,
			CompileMs:       compileMs,
			Diagnostics:     len(rep.Diagnostics),
			PredictedStages: rep.Estimate.StagesUsed,
			PredictedSRAM:   rep.Estimate.TotalSRAM,
			PredictedTCAM:   rep.Estimate.TotalTCAM,
			ActualStages:    actual.StagesUsed,
			ActualSRAM:      actual.TotalSRAM,
			ActualTCAM:      actual.TotalTCAM,
		}
		p.Exact = p.PredictedStages == p.ActualStages &&
			p.PredictedSRAM == p.ActualSRAM && p.PredictedTCAM == p.ActualTCAM
		out = append(out, p)
	}
	return out, nil
}

// FormatVet renders the estimation experiment as an aligned table.
func FormatVet(pts []VetPoint) string {
	var b []byte
	b = append(b, "camus-vet resource estimation vs ground truth (Fig. 5c workload)\n"...)
	b = append(b, fmt.Sprintf("%-14s %10s %10s %8s %12s %12s %6s\n",
		"subscriptions", "analyze", "compile", "stages", "sram", "tcam", "exact")...)
	for _, p := range pts {
		b = append(b, fmt.Sprintf("%-14d %8.1fms %8.1fms %3d/%-4d %5d/%-6d %5d/%-6d %6v\n",
			p.Subscriptions, p.AnalyzeMs, p.CompileMs,
			p.PredictedStages, p.ActualStages,
			p.PredictedSRAM, p.ActualSRAM,
			p.PredictedTCAM, p.ActualTCAM, p.Exact)...)
	}
	return string(b)
}
