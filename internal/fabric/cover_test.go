package fabric

import (
	"math/rand"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/workload"
)

// splitByHost partitions rules across leaves by forwarding host — each
// subscriber host lives behind exactly one leaf.
func splitByHost(rules []lang.Rule, leaves int) [][]lang.Rule {
	out := make([][]lang.Rule, leaves)
	for _, r := range rules {
		host := r.Actions[0].Ports[0]
		out[host%leaves] = append(out[host%leaves], r)
	}
	return out
}

// TestCoverContainsAndCompresses: per-leaf covers must (a) provably
// contain every leaf predicate — checked both by the BDD containment
// proof and by a seeded random differential — and (b) be measurably
// coarser than the leaf rule sets they cover.
func TestCoverContainsAndCompresses(t *testing.T) {
	sp := workload.ITCHSpec()
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 400, Stocks: 30, Hosts: 40, PriceMax: 1000, PriceGrid: 10, Seed: 7,
	})
	const leaves = 2
	parts := splitByHost(rules, leaves)

	leafEntries := 0
	spineEntries := 0
	covers := make([]Cover, leaves)
	for j, part := range parts {
		full, err := compiler.Compile(sp, part, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		leafEntries += full.Stats.TableEntries

		cover, err := ComputeCover(sp, part, CoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		covers[j] = cover
		if cover.MatchesAll() {
			t.Fatalf("leaf %d: stock-qualified rules must not cover to match-all", j)
		}

		// Per-leaf cover program: the containment obligation is against
		// the cover predicate routed toward this leaf alone.
		coverProg, err := SpineProgram(sp, []Cover{cover}, []int{j}, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ok, witness, err := VerifyCover(full, coverProg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("leaf %d: predicate escapes its cover at packet %v", j, witness)
		}

		// Seeded differential: any packet the leaf matches, the cover must.
		r := rand.New(rand.NewSource(int64(100 + j)))
		stockIdx, err := full.FieldIndex("stock")
		if err != nil {
			t.Fatal(err)
		}
		q, err := sp.LookupField("stock")
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint64, len(full.Fields))
		for probe := 0; probe < 2000; probe++ {
			for f := range vals {
				if max := full.Fields[f].Max; max == ^uint64(0) {
					vals[f] = r.Uint64()
				} else {
					vals[f] = r.Uint64() % (max + 1)
				}
			}
			if probe%2 == 0 { // half the probes on live symbols
				sym, err := spec.EncodeSymbol(q, workload.StockSymbol(r.Intn(30)))
				if err != nil {
					t.Fatal(err)
				}
				vals[stockIdx] = sym
			}
			if len(full.Evaluate(vals).Ports) > 0 && len(coverProg.Evaluate(vals).Ports) == 0 {
				t.Fatalf("leaf %d: packet %v matches leaf but not cover", j, vals)
			}
		}
	}

	spine, err := SpineProgram(sp, covers, []int{0, 1}, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spineEntries = spine.Stats.TableEntries
	if spineEntries*2 > leafEntries {
		t.Fatalf("cover not measurably coarser: spine %d entries vs leaf total %d", spineEntries, leafEntries)
	}
	t.Logf("leaf entries %d, spine entries %d (%.1fx compression)",
		leafEntries, spineEntries, float64(leafEntries)/float64(spineEntries))
}

// TestCoverEdgeCases: empty rule sets cover to nothing; a rule with no
// keep-field constraint collapses the cover to match-all.
func TestCoverEdgeCases(t *testing.T) {
	sp := workload.ITCHSpec()
	cover, err := ComputeCover(sp, nil, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cover.Conjs) != 0 {
		t.Fatalf("empty rule set covered to %d conjunctions", len(cover.Conjs))
	}

	rules, err := lang.ParseRules("price > 10 : fwd(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	cover, err = ComputeCover(sp, rules, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !cover.MatchesAll() {
		t.Fatal("price-only rule must cover to match-all on the stock keep field")
	}

	if _, err := ComputeCover(sp, rules, CoverOptions{KeepFields: []string{"nope"}}); err == nil {
		t.Fatal("unknown keep field accepted")
	}
}

// TestCoverMergesSingleFieldConjs: covers over one keep field merge into
// a single interval-union conjunction per field.
func TestCoverMergesSingleFieldConjs(t *testing.T) {
	sp := workload.ITCHSpec()
	rules, err := lang.ParseRules(
		"stock == GOOGL && price > 10 : fwd(1)\n" +
			"stock == GOOGL && price > 500 : fwd(2)\n" +
			"stock == MSFT && shares < 9 : fwd(3)\n")
	if err != nil {
		t.Fatal(err)
	}
	cover, err := ComputeCover(sp, rules, CoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cover.Conjs) != 1 {
		t.Fatalf("got %d cover conjunctions, want 1 merged stock disjunction", len(cover.Conjs))
	}
	if n := len(cover.Conjs[0].Constraints); n != 1 {
		t.Fatalf("merged conjunction has %d constraints, want 1", n)
	}
}

// TestVerifyCoverIgnoresDroppedRegions: a leaf's explicit drop() does to a
// packet what matching no rule does, so a cover owes it nothing — and says
// so whether the compiler met the dropping rule or the silent region first.
// A forwarded or state-updating region that escapes still comes back as a
// packet. The oracle evaluates both programs on every combination of the
// values the rules distinguish.
func TestVerifyCoverIgnoresDroppedRegions(t *testing.T) {
	sp, err := spec.Parse(workload.ITCHSpecSource + "@query_counter(seen, 1000)\n")
	if err != nil {
		t.Fatal(err)
	}
	const (
		fwd    = "stock == GOOGL && price > 100 : fwd(1)\n"
		drops  = "stock == MSFT : drop()\nstock == AAPL && price < 50 : drop()\n"
		update = "stock == IBM : seen[add_order.stock] <- count()\n"
	)
	q, err := sp.LookupField("stock")
	if err != nil {
		t.Fatal(err)
	}
	var stocks []uint64
	for _, sym := range []string{"GOOGL", "MSFT", "AAPL", "IBM", "ORCL"} {
		v, err := spec.EncodeSymbol(q, sym)
		if err != nil {
			t.Fatal(err)
		}
		stocks = append(stocks, v)
	}
	for _, tc := range []struct {
		name, leaf, covered string
		want                bool
	}{
		{"drops after, uncovered", fwd + drops, fwd, true},
		{"drops first, uncovered", drops + fwd, fwd, true},
		{"only drops, covered by nothing that matters", drops, fwd, true},
		{"forward escapes", drops + fwd, drops, false},
		{"update escapes", fwd + drops + update, fwd + drops, false},
		{"update covered", update + drops + fwd, fwd + update, true},
	} {
		leafRules, err := lang.ParseRules(tc.leaf)
		if err != nil {
			t.Fatal(err)
		}
		full, err := compiler.Compile(sp, leafRules, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		coveredRules, err := lang.ParseRules(tc.covered)
		if err != nil {
			t.Fatal(err)
		}
		cover, err := ComputeCover(sp, coveredRules, CoverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		coverProg, err := SpineProgram(sp, []Cover{cover}, []int{7}, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		escapes := func(vals []uint64) bool {
			as := full.Evaluate(vals)
			return (len(as.Ports) > 0 || len(as.Updates) > 0) && len(coverProg.Evaluate(vals).Ports) == 0
		}
		brute := true
		stockIdx, _ := full.FieldIndex("stock")
		priceIdx, _ := full.FieldIndex("price")
		for _, s := range stocks {
			for _, p := range []uint64{0, 49, 50, 100, 101, full.Fields[priceIdx].Max} {
				vals := make([]uint64, len(full.Fields))
				vals[stockIdx], vals[priceIdx] = s, p
				brute = brute && !escapes(vals)
			}
		}
		ok, witness, err := VerifyCover(full, coverProg)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.want || ok != brute {
			t.Errorf("%s: VerifyCover = %v, want %v, enumeration says %v (witness %v)", tc.name, ok, tc.want, brute, witness)
		}
		if !ok && !escapes(witness) {
			t.Errorf("%s: witness %v does not escape: leaf %s, cover %s", tc.name, witness, full.Evaluate(witness), coverProg.Evaluate(witness))
		}
	}
}
