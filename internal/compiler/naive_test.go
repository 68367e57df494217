package compiler

import (
	"fmt"
	"strings"
	"testing"

	"camus/internal/spec"
)

func TestNaiveTCAMCostSingleRule(t *testing.T) {
	sp := itchSpec(t)
	// One exact-match rule: regions are {GOOGL} and its complement.
	// {GOOGL} costs 1 wide entry; the complement's stock constraint is a
	// 2-interval set over 64 bits whose prefix expansion is large but
	// finite.
	pass := passSrc(t, sp, "stock == GOOGL : fwd(1)", Options{})
	got := NaiveTCAMCost(pass)
	if got < 2 {
		t.Fatalf("naive cost %d too small", got)
	}
	if paths := pass.Diagram().CountPaths(); paths != 2 {
		t.Fatalf("paths = %d, want 2", paths)
	}
}

func TestNaiveTCAMCostMultiplicative(t *testing.T) {
	sp := itchSpec(t)
	// A rule constraining two fields: the matching region's wide entry
	// cost is the product of the per-field expansions.
	pass := passSrc(t, sp, "shares > 0 && price > 0 : fwd(1)", Options{})
	// shares > 0 over 32 bits: [1, 2^32-1] expands to 32 prefixes; price
	// likewise. Regions and their wide-entry costs:
	//   shares>0 ∧ price>0  -> 32 * 32 = 1024
	//   shares>0 ∧ price==0 -> 32 * 1  = 32
	//   shares==0           -> 1
	got := NaiveTCAMCost(pass)
	want := uint64(32*32 + 32 + 1)
	if got != want {
		t.Fatalf("naive cost = %d, want %d", got, want)
	}
}

func TestNaiveCostExceedsCamusOnOverlappingRules(t *testing.T) {
	sp := itchSpec(t)
	// Independent rules on two fields: the single wide table pays the
	// cross product of cells (regions multiply), and each region's entry
	// count is the product of the per-field range expansions — §3.2's
	// "exponential number of entries in the worst case". Camus pays one
	// per-field table each, linear in the number of cells.
	var b strings.Builder
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, "price > %d : fwd(%d)\n", i*37, 1+i%8)
		fmt.Fprintf(&b, "shares > %d : fwd(%d)\n", i*53, 9+i%8)
	}
	pass := passSrc(t, sp, b.String(), Options{})
	naive := NaiveTCAMCost(pass)
	camus := pass.prog.MemoryCost()
	if naive < 10*camus {
		t.Fatalf("naive %d should dwarf camus %d on cross-product workloads", naive, camus)
	}
}

func TestNaiveTCAMCostEmptyProgram(t *testing.T) {
	sp := itchSpec(t)
	pass := passSrc(t, sp, "", Options{})
	if got := NaiveTCAMCost(pass); got != 1 {
		t.Fatalf("empty program: one all-wildcard region, got %d", got)
	}
}

func TestCountPathsMatchesManualDAG(t *testing.T) {
	sp := itchSpec(t)
	pass := passSrc(t, sp, "stock == AAPL : fwd(1)\nstock == MSFT : fwd(2)\n", Options{})
	// Regions: {AAPL}, {MSFT}, everything else.
	if got := pass.Diagram().CountPaths(); got != 3 {
		t.Fatalf("paths = %d, want 3", got)
	}
}

func TestForceRangeTablesOption(t *testing.T) {
	sp := itchSpec(t)
	p := compileSrc(t, sp, "stock == GOOGL : fwd(1)", Options{ForceRangeTables: true, DisableCompression: true})
	for i, f := range p.Fields {
		if f.Name == "add_order.stock" && p.Tables[i].Match != spec.MatchRange {
			t.Fatalf("stock table should be range under ForceRangeTables, got %v", p.Tables[i].Match)
		}
	}
	// Semantics unchanged.
	googl := encodeStock(t, sp, "GOOGL")
	if got := p.Evaluate(itchValues(p, 0, googl, 0)); got.Ports.Len() != 1 {
		t.Fatalf("forced-range program broken: %+v", got)
	}
}
