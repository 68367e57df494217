package experiments

import (
	"strings"
	"testing"
	"time"

	"camus/internal/pipeline"
)

func TestFig5aLowGrowth(t *testing.T) {
	pts, err := Fig5a(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(Fig5aSweep) {
		t.Fatalf("points = %d", len(pts))
	}
	// Entries must grow with subscriptions but stay well below the naive
	// exponential blowup: bounded by a small multiple of subs^2.
	for i := 1; i < len(pts); i++ {
		if pts[i].X <= pts[i-1].X {
			t.Fatalf("sweep not increasing")
		}
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Entries <= first.Entries {
		t.Fatalf("entries should grow: %+v", pts)
	}
	if last.Entries > 4*last.X*last.X {
		t.Fatalf("entries %d at %d subs exceeds quadratic envelope", last.Entries, last.X)
	}
	out := FormatEntriesSeries("t", "subscriptions", pts)
	if !strings.Contains(out, "subscriptions") {
		t.Fatal("format broken")
	}
}

func TestFig5bSelectivityReducesEntries(t *testing.T) {
	pts, err := Fig5b(1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: more predicates per subscription (more
	// selective) ⇒ fewer table entries. Demand a strong decrease from the
	// 2-predicate point to the 8-predicate point, and that the first half
	// of the sweep is monotone.
	if pts[len(pts)-1].Entries*4 > pts[0].Entries {
		t.Fatalf("selectivity should slash entries: %+v", pts)
	}
	for i := 1; i < len(pts)/2+1; i++ {
		if pts[i].Entries > pts[i-1].Entries {
			t.Fatalf("entries should fall with more predicates early in the sweep: %+v", pts)
		}
	}
}

func TestFig5cScalesTo100K(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 100K subscriptions")
	}
	pts, err := Fig5c([]int{1000, 100000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := pts[len(pts)-1]
	// The paper: 100K subscriptions -> 21,401 entries, 198 multicast
	// groups, compiling in ~1000s (OCaml). Shape targets: entries within
	// 2x of the paper's, compile time far below the paper's.
	if last.Entries < 10000 || last.Entries > 45000 {
		t.Errorf("100K subs -> %d entries; paper reports 21,401", last.Entries)
	}
	if last.CompileTime > 5*time.Minute {
		t.Errorf("compile time %v too slow", last.CompileTime)
	}
	if last.Groups == 0 {
		t.Error("no multicast groups allocated")
	}
	// Entries grow sublinearly in subscriptions (compression property).
	if float64(last.Entries) > 0.5*float64(last.Subscriptions) {
		t.Errorf("entries/sub ratio %.2f too high", float64(last.Entries)/float64(last.Subscriptions))
	}
	out := FormatFig5c(pts)
	if !strings.Contains(out, "21,401") {
		t.Fatal("format should cite the paper's reference numbers")
	}
}

func TestFig7Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	a, err := Fig7a()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: all Camus messages within 50µs; baseline tail ~300µs.
	if a.Camus.Max() > 50*time.Microsecond {
		t.Errorf("7a camus max %v > 50µs", a.Camus.Max())
	}
	if a.Baseline.Max() < 150*time.Microsecond || a.Baseline.Max() > 600*time.Microsecond {
		t.Errorf("7a baseline max %v outside the paper's ballpark (~300µs)", a.Baseline.Max())
	}
	b, err := Fig7b()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: camus 99.5% ≤ 20µs vs baseline 96.5%.
	cf := b.Camus.FractionBelow(20 * time.Microsecond)
	bf := b.Baseline.FractionBelow(20 * time.Microsecond)
	if cf < 0.995 {
		t.Errorf("7b camus CDF(20µs) = %.4f, want >= 0.995", cf)
	}
	if bf > cf || bf < 0.90 || bf > 0.995 {
		t.Errorf("7b baseline CDF(20µs) = %.4f, want in [0.90, 0.995) and below camus", bf)
	}
	if !strings.Contains(FormatFig7("x", b), "baseline") {
		t.Fatal("format broken")
	}
}

func TestThroughputFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles large rule sets")
	}
	pts, err := Throughput([]int{1, 1000, 20000}, 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Per-message cost must not scale with rules: allow constant-factor
	// cache effects but reject anything resembling linear growth.
	if pts[len(pts)-1].NsPerMsg > 20*pts[0].NsPerMsg {
		t.Errorf("per-message cost grew with rules: %+v", pts)
	}
	out := FormatThroughput(pts, pipeline.DefaultConfig())
	if !strings.Contains(out, "Tb/s") {
		t.Fatal("format broken")
	}
}

func TestAblationShowsOptimizationValue(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 20K subscriptions thrice")
	}
	pts, err := Ablation(20000, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationPoint{}
	for _, p := range pts {
		byName[p.Variant] = p
	}
	full := byName["full"]
	noCompr := byName["no-compression"]
	allTCAM := byName["all-tcam"]
	if full.TCAM >= noCompr.TCAM {
		t.Errorf("compression should cut TCAM: full=%d no-compression=%d", full.TCAM, noCompr.TCAM)
	}
	if allTCAM.TCAM <= noCompr.TCAM {
		t.Errorf("forcing range tables should inflate TCAM: %d vs %d", allTCAM.TCAM, noCompr.TCAM)
	}
	if allTCAM.SRAM >= noCompr.SRAM {
		t.Errorf("forcing range tables should strip SRAM usage: %d vs %d", allTCAM.SRAM, noCompr.SRAM)
	}
	camusMem := uint64(full.SRAM) + uint64(full.TCAM)
	if full.NaiveTCAM <= camusMem {
		t.Errorf("naive single-table TCAM (%d) should exceed Camus memory (%d)", full.NaiveTCAM, camusMem)
	}
	if !strings.Contains(FormatAblation(pts), "no-compression") {
		t.Fatal("format broken")
	}
}

func TestFanoutSplitsFeed(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	pts, err := Fanout(8)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]FanoutPoint{}
	for _, p := range pts {
		byMode[p.Mode] = p
	}
	camus, bcast := byMode["camus"], byMode["broadcast"]
	if bcast.DeliveredMsgs != bcast.TotalMsgs*bcast.Subscribers {
		t.Fatalf("broadcast should deliver everything everywhere: %d vs %d",
			bcast.DeliveredMsgs, bcast.TotalMsgs*bcast.Subscribers)
	}
	if camus.FabricMBytes*5 > bcast.FabricMBytes {
		t.Fatalf("switch filtering should slash fabric bytes: %.2f vs %.2f MB",
			camus.FabricMBytes, bcast.FabricMBytes)
	}
	if camus.WorstP99 >= bcast.WorstP99 {
		t.Fatalf("filtering should improve worst-subscriber p99: %v vs %v",
			camus.WorstP99, bcast.WorstP99)
	}
	if !strings.Contains(FormatFanout(pts), "broadcast") {
		t.Fatal("format broken")
	}
}

func TestOrderAblationHeuristicWins(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a large workload three times")
	}
	pts, err := OrderAblation(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]OrderPoint{}
	for _, p := range pts {
		byName[p.Order] = p
	}
	h, bad := byName["heuristic"], byName["price-first"]
	if h.CompileTime >= bad.CompileTime {
		t.Errorf("heuristic order should compile faster: %v vs %v", h.CompileTime, bad.CompileTime)
	}
	if h.BDDNodes > bad.BDDNodes {
		t.Errorf("heuristic order should not grow the BDD: %d vs %d", h.BDDNodes, bad.BDDNodes)
	}
	if !strings.Contains(FormatOrderAblation(pts), "heuristic") {
		t.Fatal("format broken")
	}
}

// TestVetEstimateExact: on the Fig. 5c workload camus-vet's predicted
// stages, SRAM and TCAM are the compiled program's pipeline.Plan, not an
// approximation of it.
func TestVetEstimateExact(t *testing.T) {
	pts, err := VetEstimate([]int{2000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if p.ActualStages == 0 || p.ActualSRAM+p.ActualTCAM == 0 {
		t.Fatalf("compiled program plans to nothing: %+v", p)
	}
	if p.PredictedStages != p.ActualStages || p.PredictedSRAM != p.ActualSRAM || p.PredictedTCAM != p.ActualTCAM || !p.Exact {
		t.Fatalf("prediction differs from the plan: %+v", p)
	}
	if !strings.Contains(FormatVet(pts), "true") {
		t.Fatal("format broken")
	}
}
