package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Error("nil counter should load 0")
	}
	var g *Gauge
	g.Set(7)
	g.Add(1)
	if g.Load() != 0 {
		t.Error("nil gauge should load 0")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram should read as empty")
	}
	var tr *Tracer
	sp := tr.Start(context.Background(), "nothing")
	sp.SetLabel("k", "v")
	sp.End(nil)
	sp.EndOutcome("ok", nil)
	if tr.Spans() != nil {
		t.Error("nil tracer should have no spans")
	}
	var tel *Telemetry
	if tel.Reg() != nil || tel.Trc() != nil {
		t.Error("nil telemetry accessors should be nil")
	}
	if snap := tel.Snapshot(); len(snap.Counters) != 0 {
		t.Error("nil telemetry snapshot should be empty")
	}
}

func TestNilRegistryReturnsDetachedInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	c.Add(2)
	if c.Load() != 2 {
		t.Error("detached counter must still count")
	}
	if g := r.Gauge("x"); g == nil {
		t.Error("detached gauge must be usable")
	}
	h := r.Histogram("x_seconds")
	h.Observe(time.Millisecond)
	if h.Count() != 1 {
		t.Error("detached histogram must still observe")
	}
	r.RegisterCounter("y_total", c)
	r.CounterFunc("z_total", func() float64 { return 1 })
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("camus_x_total", L("table", "stock"))
	b := r.Counter("camus_x_total", L("table", "stock"))
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	if c := r.Counter("camus_x_total", L("table", "price")); c == a {
		t.Error("different labels must return a different counter")
	}
	// Label order must not matter for identity.
	x := r.Counter("camus_y_total", L("a", "1"), L("b", "2"))
	y := r.Counter("camus_y_total", L("b", "2"), L("a", "1"))
	if x != y {
		t.Error("label order must not change series identity")
	}
}

func TestRegisterCounterAdoptsAndRebinds(t *testing.T) {
	r := NewRegistry()
	var stats struct{ Hits Counter }
	r.RegisterCounter("camus_hits_total", &stats.Hits)
	stats.Hits.Add(5)
	if got := r.Counter("camus_hits_total").Load(); got != 5 {
		t.Errorf("registry view = %d, want 5 (one source of truth)", got)
	}
	// A fresh subsystem instance takes over its series.
	var stats2 struct{ Hits Counter }
	r.RegisterCounter("camus_hits_total", &stats2.Hits)
	stats2.Hits.Add(1)
	if got := r.Counter("camus_hits_total").Load(); got != 1 {
		t.Errorf("rebind: registry view = %d, want 1", got)
	}
}

func TestHistogramCumulativeSemantics(t *testing.T) {
	h := NewHistogramBuckets([]time.Duration{time.Microsecond, time.Millisecond})
	h.Observe(500 * time.Nanosecond) // bucket 0
	h.Observe(time.Microsecond)      // bucket 0 (le is inclusive)
	h.Observe(2 * time.Microsecond)  // bucket 1
	h.Observe(time.Minute)           // +Inf bucket
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	wantCum := []uint64{2, 3, 4}
	if len(s.Cumulative) != len(wantCum) {
		t.Fatalf("Cumulative = %v, want %v", s.Cumulative, wantCum)
	}
	for i, w := range wantCum {
		if s.Cumulative[i] != w {
			t.Errorf("Cumulative[%d] = %d, want %d", i, s.Cumulative[i], w)
		}
	}
	if s.Cumulative[len(s.Cumulative)-1] != s.Count {
		t.Error("+Inf bucket must equal Count")
	}
	if len(s.UpperBoundsSeconds) != 2 {
		t.Errorf("UpperBoundsSeconds = %v, want 2 bounds", s.UpperBoundsSeconds)
	}
	if got := h.Quantile(0.5); got != time.Microsecond {
		t.Errorf("Quantile(0.5) = %v, want %v", got, time.Microsecond)
	}
}

func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("camus_pipeline_packets_total").Add(42)
	r.Counter("camus_pipeline_table_hits_total", L("table", "stock")).Add(7)
	r.Counter("camus_pipeline_table_hits_total", L("table", "price")).Add(3)
	r.Gauge("camus_pipeline_sram_used").Set(1200)
	r.GaugeFunc("camus_pipeline_occupancy_ratio", func() float64 { return 0.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE camus_pipeline_packets_total counter
camus_pipeline_packets_total 42
# TYPE camus_pipeline_table_hits_total counter
camus_pipeline_table_hits_total{table="price"} 3
camus_pipeline_table_hits_total{table="stock"} 7
# TYPE camus_pipeline_sram_used gauge
camus_pipeline_sram_used 1200
# TYPE camus_pipeline_occupancy_ratio gauge
camus_pipeline_occupancy_ratio 0.5
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestPrometheusHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("camus_install_seconds", L("dev", "sw0"))
	h.Observe(3 * time.Microsecond)
	h.Observe(30 * time.Second) // beyond the top bound: +Inf only

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE camus_install_seconds histogram",
		`camus_install_seconds_bucket{dev="sw0",le="5e-06"} 1`,
		`camus_install_seconds_bucket{dev="sw0",le="+Inf"} 2`,
		`camus_install_seconds_count{dev="sw0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `camus_install_seconds_sum{dev="sw0"} 30.000003`) {
		t.Errorf("exposition missing sum line:\n%s", out)
	}
	// Bucket counts must be cumulative: every bucket line's value must be
	// >= the previous one's.
	last := uint64(0)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "camus_install_seconds_bucket") {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

// promLine is the promlint-style shape every exposition sample must have:
// metric name, optional label set, one float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

func TestPrometheusLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("camus_a_total").Inc()
	r.Counter("camus_b_total", L("outcome", "ok"), L("mode", "fast")).Inc()
	r.Gauge("camus_c").Set(-3)
	r.Histogram("camus_d_seconds").Observe(time.Millisecond)
	r.CounterFunc("camus_e_total", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	seenType := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			if seenType[f[2]] {
				t.Errorf("duplicate TYPE for %s", f[2])
			}
			seenType[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("sample line fails promlint shape: %q", line)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	tel := New()
	tel.Reg().Counter("camus_x_total").Add(9)
	tel.Reg().Gauge("camus_y").Set(-4)
	tel.Reg().Histogram("camus_z_seconds").Observe(2 * time.Millisecond)
	tel.Reg().CounterFunc("camus_neg_total", func() float64 { return -5 })
	sp := tel.Trc().Start(context.Background(), "op", L("k", "v"))
	sp.End(errors.New("boom"))

	snap := tel.Snapshot()
	if snap.Counters["camus_x_total"] != 9 {
		t.Errorf("counter = %d, want 9", snap.Counters["camus_x_total"])
	}
	if snap.Counters["camus_neg_total"] != 0 {
		t.Error("negative derived counter must clamp to 0")
	}
	if snap.Gauges["camus_y"] != -4 {
		t.Errorf("gauge = %v, want -4", snap.Gauges["camus_y"])
	}
	if snap.Histograms["camus_z_seconds"].Count != 1 {
		t.Error("histogram missing from snapshot")
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Outcome != "error" || snap.Spans[0].Error != "boom" {
		t.Errorf("spans = %+v, want one error span", snap.Spans)
	}

	raw, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["camus_x_total"] != 9 {
		t.Error("round-tripped counter lost")
	}
}

func TestTracerMirrorsIntoRegistry(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 2)
	for i := 0; i < 3; i++ {
		sp := tr.Start(context.Background(), "controlplane_install")
		sp.EndOutcome("ok", nil)
	}
	sp := tr.Start(context.Background(), "controlplane_install")
	sp.EndOutcome("rolled_back", errors.New("device write failed"))

	if got := reg.Counter("camus_controlplane_install_total", L("outcome", "ok")).Load(); got != 3 {
		t.Errorf("ok outcomes = %d, want 3", got)
	}
	if got := reg.Counter("camus_controlplane_install_total", L("outcome", "rolled_back")).Load(); got != 1 {
		t.Errorf("rolled_back outcomes = %d, want 1", got)
	}
	if got := reg.Histogram("camus_controlplane_install_seconds").Count(); got != 4 {
		t.Errorf("span durations observed = %d, want 4", got)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("ring retained %d spans, want 2", len(spans))
	}
	if spans[len(spans)-1].Outcome != "rolled_back" {
		t.Error("spans must be oldest-first; last must be the rollback")
	}
	// Context deadlines are recorded on the span.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	tr.Start(ctx, "controlplane_install").End(nil)
	spans = tr.Spans()
	if spans[len(spans)-1].Deadline == nil {
		t.Error("span must record the context deadline")
	}
}

// TestRegistryConcurrency hammers get-or-create, updates, and readers
// concurrently; run with -race (CI does, with -count=2).
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	tel := &Telemetry{registry: reg, tracer: NewTracer(reg, 16)}
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("camus_conc_total", L("w", fmt.Sprint(w%4))).Inc()
				reg.Gauge("camus_conc_gauge").Set(int64(i))
				reg.Histogram("camus_conc_seconds").Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					sp := tel.Trc().Start(context.Background(), "conc_op")
					sp.End(nil)
				}
			}
		}(w)
	}
	// Concurrent readers: snapshots and exposition while writers run.
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = tel.Snapshot()
				var b strings.Builder
				_ = reg.WritePrometheus(&b)
			}
		}()
	}
	wg.Wait()

	var total uint64
	for w := 0; w < 4; w++ {
		total += reg.Counter("camus_conc_total", L("w", fmt.Sprint(w))).Load()
	}
	if want := uint64(workers * iters); total != want {
		t.Errorf("concurrent counter total = %d, want %d (lost updates)", total, want)
	}
	if got := reg.Histogram("camus_conc_seconds").Count(); got != uint64(workers*iters) {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}
