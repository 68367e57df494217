package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

func mustSpec(t testing.TB) *spec.Spec {
	t.Helper()
	sp, err := spec.Parse(itchSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// buildTelemetrySwitch compiles rules and installs them on a switch with
// a fresh registry attached. The pass is the compile's, for Trace.
func buildTelemetrySwitch(t testing.TB, rules string) (*telemetry.Registry, *compiler.Pass, *Switch) {
	t.Helper()
	pass, err := compiler.Observe(context.Background(), mustSpec(t), compiler.Source{Text: rules}, compiler.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pass.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	sw, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Telemetry, pass, sw
}

// TestProcessBatchTelemetryExact checks that the batch path records
// exactly the same fused miss-pattern telemetry as per-packet Process:
// two switches with the same program, one fed packet-by-packet and one in
// ragged batches, must expose identical packets/forwarded/dropped and
// per-table hit/miss series, and the misses must be the ones Trace shows.
func TestProcessBatchTelemetryExact(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rules := genDifferentialRules(r, 80, testSymbols)
	sReg, pass, single := buildTelemetrySwitch(t, rules)
	prog := single.Program()
	bReg, _, batched := buildTelemetrySwitch(t, rules)
	sp := mustSpec(t)

	const n = 4096
	values := make([][]uint64, n)
	now := make([]time.Duration, n)
	for i := range values {
		stock := stockVal(t, sp, testSymbols[r.Intn(len(testSymbols))])
		values[i] = packetValues(prog, r.Uint64()%600, stock, r.Uint64()%1100)
	}
	forwarded := 0
	for i := range values {
		if res := single.Process(values[i], now[i]); !res.Dropped {
			forwarded++
		}
	}
	out := make([]Result, n)
	for off := 0; off < n; {
		sz := 1 + r.Intn(97) // ragged batch sizes, including size 1
		if off+sz > n {
			sz = n - off
		}
		batched.ProcessBatch(values[off:off+sz], now[off:off+sz], out[off:off+sz])
		off += sz
	}

	sSnap, bSnap := sReg.Snapshot(), bReg.Snapshot()
	if len(sSnap.Counters) == 0 {
		t.Fatal("no telemetry series scraped")
	}
	for k, v := range sSnap.Counters {
		if bSnap.Counters[k] != v {
			t.Fatalf("telemetry divergence on %s: single=%v batch=%v", k, v, bSnap.Counters[k])
		}
	}
	if got := sSnap.Counters["camus_pipeline_packets_forwarded_total"]; got != uint64(forwarded) {
		t.Fatalf("forwarded counter %v != ground truth %d", got, forwarded)
	}
	if got := sSnap.Counters["camus_pipeline_packets_total"]; got != n {
		t.Fatalf("packets counter %v != %d", got, n)
	}
	// A table's misses are the packets the compiler's Trace has miss it:
	// the tables after the row that decides a packet miss too.
	want := make([]uint64, len(prog.Tables))
	for i := range values {
		for ti, s := range pass.Trace(values[i]).Steps {
			if s.Entry == nil {
				want[ti]++
			}
		}
	}
	for ti, tab := range prog.Tables {
		key := fmt.Sprintf("camus_pipeline_table_misses_total{table=%q}", tab.Name)
		if got := sSnap.Counters[key]; got != want[ti] {
			t.Fatalf("%s = %d, Trace has %d", key, got, want[ti])
		}
	}
}

// TestProcessZeroAlloc asserts the per-packet hot path performs zero
// allocations in steady state, instrumented and not, single-shot and
// batched — the flattened tables' core contract.
func TestProcessZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	rules := genDifferentialRules(r, 100, testSymbols)
	for _, instrumented := range []bool{false, true} {
		name := "plain"
		if instrumented {
			name = "telemetry"
		}
		t.Run(name, func(t *testing.T) {
			sp := mustSpec(t)
			prog, err := compiler.CompileSource(sp, rules, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			if instrumented {
				cfg.Telemetry = telemetry.NewRegistry()
			}
			sw, err := New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			vals := packetValues(prog, 100, stockVal(t, sp, "GOOGL"), 500)
			if allocs := testing.AllocsPerRun(1000, func() {
				sw.Process(vals, 0)
			}); allocs != 0 {
				t.Fatalf("Process allocates %v per op", allocs)
			}
			const batch = 32
			values := make([][]uint64, batch)
			now := make([]time.Duration, batch)
			out := make([]Result, batch)
			for i := range values {
				values[i] = vals
			}
			if allocs := testing.AllocsPerRun(200, func() {
				sw.ProcessBatch(values, now, out)
			}); allocs != 0 {
				t.Fatalf("ProcessBatch allocates %v per op", allocs)
			}
		})
	}
}

// BenchmarkProcessBatch measures the batched hot path on the Fig. 5c
// style workload at a few batch sizes.
func BenchmarkProcessBatch(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	rules := genDifferentialRules(r, 200, testSymbols)
	sp := mustSpec(b)
	prog, err := compiler.CompileSource(sp, rules, compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sw, err := New(prog, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			values := make([][]uint64, batch)
			now := make([]time.Duration, batch)
			out := make([]Result, batch)
			for i := range values {
				stock := stockVal(b, sp, testSymbols[r.Intn(len(testSymbols))])
				values[i] = packetValues(prog, r.Uint64()%600, stock, r.Uint64()%1100)
			}
			b.ReportAllocs()
			b.SetBytes(int64(batch * 8 * len(prog.Fields)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessBatch(values, now, out)
			}
		})
	}
}
