package controlplane

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/pipeline"
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

func compile(t testing.TB, rules string) *compiler.Program {
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

func values(prog *compiler.Program, shares, stock, price uint64) []uint64 {
	vals := make([]uint64, len(prog.Fields))
	for i, f := range prog.Fields {
		switch f.Name {
		case "add_order.shares":
			vals[i] = shares
		case "add_order.stock":
			vals[i] = stock
		case "add_order.price":
			vals[i] = price
		}
	}
	return vals
}

func stockVal(t testing.TB, prog *compiler.Program, sym string) uint64 {
	t.Helper()
	q, err := prog.Spec.LookupField("stock")
	if err != nil {
		t.Fatal(err)
	}
	v, err := spec.EncodeSymbol(q, sym)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestIdenticalProgramsDiffToZero(t *testing.T) {
	rules := "stock == GOOGL : fwd(1)\nstock == AAPL && price > 50 : fwd(2,3)\n"
	a := compile(t, rules)
	b := compile(t, rules)
	AlignStates(a, b)
	d := DiffPrograms(a, b)
	if d.Entries.Added != 0 || d.Entries.Removed != 0 {
		t.Fatalf("identical programs should diff to zero: %s", d)
	}
	if d.Groups.Added != 0 || d.Groups.Removed != 0 {
		t.Fatalf("groups should be reused: %s", d)
	}
	if d.Writes() != 0 {
		t.Fatalf("writes = %d", d.Writes())
	}
}

func TestIncrementalAddReusesMostEntries(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "stock == S%03d : fwd(%d)\n", i, 1+i%16)
	}
	oldProg := compile(t, b.String())
	fmt.Fprintf(&b, "stock == NEW1 : fwd(5)\n")
	newProg := compile(t, b.String())

	AlignStates(oldProg, newProg)
	d := DiffPrograms(oldProg, newProg)
	if d.Entries.Reused < 90 {
		t.Fatalf("adding 1 rule to 100 should reuse most entries: %s", d)
	}
	if d.Entries.Added == 0 {
		t.Fatalf("new rule must add entries: %s", d)
	}
	if d.Entries.Added+d.Entries.Removed > 30 {
		t.Fatalf("delta too large for a single-rule add: %s", d)
	}
}

// TestInstallPreservesSemantics: through every entry point an install
// that extends the rule set reuses the unchanged path, serves old and new
// rules, and advances the controller's diff base.
func TestInstallPreservesSemantics(t *testing.T) {
	forEachRoute(t, pipeline.DefaultConfig(), "stock == GOOGL : fwd(1)\n", func(t *testing.T, r *route) {
		oldProg := r.ctl.Program()
		d, err := r.push(context.Background(), "stock == GOOGL : fwd(1)\nstock == AAPL : fwd(2)\n")
		if err != nil {
			t.Fatal(err)
		}
		if d.Entries.Reused == 0 {
			t.Fatalf("update should reuse the GOOGL path: %s", d)
		}
		newProg := r.ctl.Program()
		if newProg == oldProg {
			t.Fatal("controller did not record the new program")
		}
		for sym, port := range map[string]int{"GOOGL": 1, "AAPL": 2} {
			res := r.sw.Process(values(newProg, 0, encodeSym(t, r.sp, sym), 0), 0)
			if res.Dropped || !reflect.DeepEqual(res.Ports, []int{port}) {
				t.Fatalf("%s after update: %+v", sym, res)
			}
		}
	})
}

// TestAlignedProgramStillCorrect verifies that state renumbering does not
// break table semantics (differential check before/after alignment).
func TestAlignedProgramStillCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	syms := []string{"AAPL", "MSFT", "GOOGL", "ORCL", "IBM"}
	var b strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "stock == %s && price > %d : fwd(%d)\n", syms[r.Intn(len(syms))], r.Intn(1000), 1+r.Intn(8))
	}
	oldProg := compile(t, b.String())
	fmt.Fprintf(&b, "stock == TSLA : fwd(7)\n")
	newProg := compile(t, b.String())
	ref := compile(t, b.String()) // same rules, never realigned

	AlignStates(oldProg, newProg)
	for probe := 0; probe < 500; probe++ {
		sym := append(syms, "TSLA")[r.Intn(len(syms)+1)]
		stock := stockVal(t, newProg, sym)
		price := r.Uint64() % 1100
		got := newProg.Evaluate(values(newProg, 0, stock, price))
		want := ref.Evaluate(values(ref, 0, stock, price))
		if !reflect.DeepEqual(got.Ports, want.Ports) {
			t.Fatalf("alignment broke semantics for %s@%d: %v vs %v", sym, price, got.Ports, want.Ports)
		}
	}
}

func TestDeltaWritesScaleWithChange(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "stock == S%03d : fwd(%d)\n", i, 1+i%16)
	}
	base := compile(t, b.String())

	// Small change: one more rule.
	small := compile(t, b.String()+"stock == XTRA : fwd(3)\n")
	AlignStates(base, small)
	dSmall := DiffPrograms(base, small)

	// Large change: half the rules replaced.
	var b2 strings.Builder
	for i := 0; i < 200; i++ {
		if i < 100 {
			fmt.Fprintf(&b2, "stock == S%03d : fwd(%d)\n", i, 1+i%16)
		} else {
			fmt.Fprintf(&b2, "stock == T%03d : fwd(%d)\n", i, 1+i%16)
		}
	}
	base2 := compile(t, b.String())
	large := compile(t, b2.String())
	AlignStates(base2, large)
	dLarge := DiffPrograms(base2, large)

	if dSmall.Writes() >= dLarge.Writes() {
		t.Fatalf("small change (%d writes) should cost less than large change (%d writes)",
			dSmall.Writes(), dLarge.Writes())
	}
}
