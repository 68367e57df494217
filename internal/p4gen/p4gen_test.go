package p4gen

import (
	"fmt"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/spec"
)

const itchSpecSrc = `
header_type itch_add_order_t {
    fields {
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;
@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
`

func compile(t *testing.T, rules string) *compiler.Program {
	t.Helper()
	sp, err := spec.Parse(itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileSource(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestGenerateP4Structure(t *testing.T) {
	prog := compile(t, "stock == GOOGL && price > 50 : fwd(1)\nstock == AAPL : fwd(2,3)\n")
	src := GenerateP4(prog)
	for _, want := range []string{
		"header_type itch_add_order_t",
		"header itch_add_order_t add_order;",
		"metadata camus_meta_t camus_meta;",
		"parser start",
		"extract(add_order);",
		"action set_state(next_state)",
		"table camus_add_order_stock",
		"camus_meta.state : exact;",
		"add_order.stock : exact;",
		"actions { set_state; keep_state; do_fwd; do_multicast; set_class; }",
		"table camus_leaf",
		"reads { camus_meta.class : exact; }",
		"keep_state on every field table, do_drop on camus_leaf",
		"do_multicast",
		"control ingress",
		"if (camus_meta.decided == 0) {\n        apply(camus_leaf);",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated P4 missing %q\n%s", want, src)
		}
	}
}

func TestGenerateP4StatefulProgram(t *testing.T) {
	prog := compile(t, "stock == GOOGL && avg(price) > 50 : fwd(1)")
	src := GenerateP4(prog)
	for _, want := range []string{
		"register reg_avg_add_order_price_sum",
		"update_avg_add_order_price",
		"register_write",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("stateful P4 missing %q", want)
		}
	}
}

func TestGenerateP4TableOrderMatchesPipeline(t *testing.T) {
	prog := compile(t, "stock == GOOGL && price > 50 && shares < 100 : fwd(1)")
	src := GenerateP4(prog)
	ingress := src[strings.Index(src, "control ingress"):]
	iShares := strings.Index(ingress, "apply(camus_add_order_shares);")
	iPrice := strings.Index(ingress, "apply(camus_add_order_price);")
	iStock := strings.Index(ingress, "apply(camus_add_order_stock);")
	iLeaf := strings.Index(ingress, "apply(camus_leaf);")
	if !(iShares >= 0 && iShares < iPrice && iPrice < iStock && iStock < iLeaf) {
		t.Fatalf("apply order wrong:\n%s", ingress)
	}
}

func TestGenerateEntries(t *testing.T) {
	prog := compile(t, "stock == GOOGL : fwd(1)\nstock == AAPL : fwd(2,3)\n")
	entries := GenerateEntries(prog)
	for _, want := range []string{
		"mcgroup 0 ports=2,3",
		"table camus_add_order_stock default -> keep_state\n",
		"table camus_add_order_stock add",
		"table camus_leaf default -> drop\n",
		"-> fwd(1)\n",
		"-> mcast(0)\n",
	} {
		if !strings.Contains(entries, want) {
			t.Errorf("entries missing %q\n%s", want, entries)
		}
	}
	// A symbol nobody wants misses: no wildcard row, and no row drops.
	if strings.Contains(entries, "match=*") || strings.Count(entries, "-> drop\n") != 1 {
		t.Errorf("a row leads to the drop\n%s", entries)
	}
	// The rows that reach the two forwards decide the packet themselves:
	// no leaf row, and no row names a terminal's state.
	if strings.Contains(entries, "camus_leaf add") || strings.Contains(entries, "-> state=") {
		t.Errorf("a forward-only program has a leaf row or a row to a terminal state\n%s", entries)
	}

	// An action set with state updates keeps one leaf row, named by class.
	stateful := GenerateEntries(compile(t, "stock == GOOGL && avg(price) > 50 : fwd(1)"))
	for _, want := range []string{"-> class(", "table camus_leaf add class=", "table camus_leaf link class="} {
		if !strings.Contains(stateful, want) {
			t.Errorf("stateful entries missing %q\n%s", want, stateful)
		}
	}
}

func TestGenerateEntriesWithCodec(t *testing.T) {
	sp, err := spec.Parse(itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.SetFieldOrder("stock", "price"); err != nil {
		t.Fatal(err)
	}
	// One price row for each of 16 symbols: a table large enough to
	// compress.
	var b strings.Builder
	for i := range 16 {
		fmt.Fprintf(&b, "stock == S%02d && price > 500 : fwd(%d)\n", i, i+1)
	}
	prog, err := compiler.CompileSource(sp, b.String(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hasCodec := false
	for _, tab := range prog.Tables {
		if tab.Codec != nil {
			hasCodec = true
		}
	}
	if !hasCodec {
		t.Skip("compression did not trigger; nothing to test")
	}
	src := GenerateP4(prog)
	if !strings.Contains(src, "_codec") || !strings.Contains(src, "_code, code") {
		t.Fatalf("codec stage missing from P4:\n%s", src)
	}
	entries := GenerateEntries(prog)
	if !strings.Contains(entries, "_codec add match=range:") {
		t.Fatalf("codec entries missing:\n%s", entries)
	}
}

func TestTableSizePowersOfTwo(t *testing.T) {
	cases := map[int]int{0: 16, 1: 16, 16: 16, 17: 32, 100: 128, 21401: 32768}
	for n, want := range cases {
		if got := tableSize(n); got != want {
			t.Errorf("tableSize(%d) = %d, want %d", n, got, want)
		}
	}
}
