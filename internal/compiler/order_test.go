package compiler

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"camus/internal/lang"
)

func TestSuggestFieldOrderPrefersEqualityDiscriminator(t *testing.T) {
	sp := itchSpec(t)
	var b strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "stock == S%03d && price > %d : fwd(%d)\n", i, i*10, 1+i%8)
	}
	rules, err := lang.ParseRules(b.String())
	if err != nil {
		t.Fatal(err)
	}
	order, err := SuggestFieldOrder(sp, rules)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "add_order.stock" {
		t.Fatalf("stock should lead the order, got %v", order)
	}
	// shares is unused and must come last.
	if order[len(order)-1] != "add_order.shares" {
		t.Fatalf("unused field should be last, got %v", order)
	}
}

func TestSuggestedOrderShrinksBDD(t *testing.T) {
	// The workload of Fig. 5c: stock is the discriminator. Price-first
	// ordering duplicates the per-stock price chains under every price
	// cell; stock-first keeps them separate. The heuristic must pick the
	// small one: fewer nodes, fewer pipeline states, and fewer of the
	// entries the tables hold, domain compression on: a codec is taken only
	// where it occupies fewer slots, so it cannot blow a range table up to a
	// row per code it covers (2,011 entries under stock-first while it was
	// priced by intervals).
	r := rand.New(rand.NewSource(42))
	var b strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "stock == S%03d && price > %d : fwd(%d)\n", r.Intn(20), 10*(1+r.Intn(99)), 1+r.Intn(16))
	}
	rules, err := lang.ParseRules(b.String())
	if err != nil {
		t.Fatal(err)
	}

	badSpec := itchSpec(t)
	if err := badSpec.SetFieldOrder("price", "stock"); err != nil {
		t.Fatal(err)
	}
	opts := Options{}
	badProg, err := Compile(badSpec, rules, opts)
	if err != nil {
		t.Fatal(err)
	}

	goodSpec := itchSpec(t)
	order, err := ApplySuggestedOrder(goodSpec, rules)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "add_order.stock" {
		t.Fatalf("heuristic picked %v", order)
	}
	goodProg, err := Compile(goodSpec, rules, opts)
	if err != nil {
		t.Fatal(err)
	}

	if 2*goodProg.Stats.BDDNodes >= badProg.Stats.BDDNodes {
		t.Fatalf("suggested order should halve the BDD: %d vs %d nodes",
			goodProg.Stats.BDDNodes, badProg.Stats.BDDNodes)
	}
	if goodProg.Stats.States >= badProg.Stats.States {
		t.Fatalf("suggested order should need fewer states: %d vs %d",
			goodProg.Stats.States, badProg.Stats.States)
	}
	if 2*goodProg.Stats.TableEntries >= badProg.Stats.TableEntries {
		t.Fatalf("suggested order should halve the tables: %d vs %d entries",
			goodProg.Stats.TableEntries, badProg.Stats.TableEntries)
	}
	if goodProg.Stats.TableEntries > 500 {
		t.Fatalf("stock-first tables hold %d entries, bound 500\n%s", goodProg.Stats.TableEntries, goodProg.Stats)
	}
	// Both orders must agree semantically.
	for probe := 0; probe < 300; probe++ {
		stock := encodeStock(t, itchSpec(t), fmt.Sprintf("S%03d", probe%25))
		price := uint64(probe * 7 % 1100)
		a := goodProg.Evaluate(itchValues(goodProg, 0, stock, price))
		b := badProg.Evaluate(itchValues(badProg, 0, stock, price))
		if a.String() != b.String() {
			t.Fatalf("orders disagree at stock=S%03d price=%d: %s vs %s", probe%25, price, a, b)
		}
	}
}

func TestSuggestFieldOrderEmptyRules(t *testing.T) {
	sp := itchSpec(t)
	order, err := SuggestFieldOrder(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSuggestFieldOrderIgnoresAggregates(t *testing.T) {
	sp := itchSpec(t)
	rules, err := lang.ParseRules("stock == GOOGL && avg(price) > 50 : fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	order, err := SuggestFieldOrder(sp, rules)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != "add_order.stock" {
		t.Fatalf("order = %v", order)
	}
}
