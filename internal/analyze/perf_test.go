package analyze

import (
	"fmt"
	"testing"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/workload"
)

// fig5cPairs bounds the pairwise work on the 10k-rule Fig. 5c workload: the
// pairs the bucketing left to examine when it was measured (500,795), plus
// 10%. BenchmarkAnalyze carries the cost in time.
const fig5cPairs = 550_875

// TestAnalyze10kWithinPairBudget: the paper's Fig. 5c ITCH subscription
// workload at 10k rules analyzes clean, resources included, and its pairwise
// checks finish within fig5cPairs — the bucketing still prunes.
func TestAnalyze10kWithinPairBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-rule workload; skipped with -short")
	}
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = 10_000
	rules := workload.ITCHSubscriptions(cfg)
	sp := workload.ITCHSpec()

	rep := Rules(sp, rules, Options{MaxPairs: fig5cPairs})
	t.Logf("analyzed %d rules (%d diagnostics, estimate=%v)", len(rules), len(rep.Diagnostics), rep.Estimate != nil)
	if rep.Estimate == nil {
		t.Error("resource estimate missing")
	}
	for _, d := range rep.Diagnostics {
		switch d.Code {
		case CodeParse, CodeType:
			t.Errorf("clean workload produced front-end diagnostic %s", d)
		case CodeLimit:
			t.Errorf("pairwise checks needed more than %d pairs: %s", fig5cPairs, d)
		}
	}
}

// TestEstimateIsThePlanOfTheCompile: CAM006 prices the program the pass
// compiled, so the estimate on 2,000 Fig. 5c rules is pipeline.Plan of
// compiler.Compile of the same rules on every axis.
func TestEstimateIsThePlanOfTheCompile(t *testing.T) {
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions, cfg.Seed = 2000, 1
	rules := workload.ITCHSubscriptions(cfg)
	sp := workload.ITCHSpec()
	rep := Rules(sp, rules, Options{})
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := pipeline.Plan(prog, pipeline.DefaultConfig())
	if rep.Estimate == nil || want.StagesUsed == 0 || want.TotalSRAM+want.TotalTCAM == 0 {
		t.Fatalf("estimate %+v, plan %+v", rep.Estimate, want)
	}
	if got := *rep.Estimate; got.StagesUsed != want.StagesUsed || got.TotalSRAM != want.TotalSRAM || got.TotalTCAM != want.TotalTCAM {
		t.Fatalf("estimate stages %d, SRAM %d, TCAM %d; the compile's plan %d, %d, %d",
			got.StagesUsed, got.TotalSRAM, got.TotalTCAM, want.StagesUsed, want.TotalSRAM, want.TotalTCAM)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	for _, n := range []int{1000, 10_000} {
		cfg := workload.DefaultITCHSubsConfig()
		cfg.Subscriptions = n
		rules := workload.ITCHSubscriptions(cfg)
		sp := workload.ITCHSpec()
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Rules(sp, rules, Options{})
			}
		})
	}
}
