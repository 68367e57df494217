package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest holds BENCHMARK.json to the limits of the contract it is
// written to, so that a malformed edit fails here and not in the driver.
func TestManifest(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, mm := range m.EndToEnd {
		name(mm.Name)
		if mm.Bound == nil || *mm.Bound < 0 || *mm.Bound > 0.25 {
			t.Errorf("%s: bound must be in [0, 0.25]", mm.Name)
		}
		if mm.Name == "setup_s" {
			setup = mm.Unit == "s" && mm.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, in s, lower is better")
	}
	for _, mm := range m.PerLayer {
		name(mm.Name)
		if mm.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", mm.Name)
		}
	}
	for _, mm := range append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...) {
		if mm.Better != "higher" && mm.Better != "lower" {
			t.Errorf("%s: better is %q", mm.Name, mm.Better)
		}
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(mm.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", mm.Name, mm.Unit)
		}
	}
	for _, p := range m.Paths {
		if filepath.IsAbs(p) || strings.Contains(p, "..") {
			t.Errorf("path %q leaves the repository", p)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at reduced size and
// under a second of socket time. It asserts the result schema against
// BENCHMARK.json in both directions, correctness, and zero failed
// operations — and no timing, so it holds at any GOMAXPROCS.
func TestSmoke(t *testing.T) {
	m, err := readManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	defs := workloads(true)
	if len(defs) != len(m.Workloads) {
		t.Fatalf("%d workloads in code, %d in the manifest", len(defs), len(m.Workloads))
	}
	for i := range defs {
		w := &defs[i]
		if w.name != m.Workloads[i].Name {
			t.Errorf("workload %d is %q in code and %q in the manifest", i, w.name, m.Workloads[i].Name)
		}
		for _, traced := range []bool{false, true} {
			want := m.EndToEnd
			if traced {
				want = m.PerLayer
			}
			res, err := runWorkload(w, 1, 0.6, traced, true)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %s", w.name, traced, res.Verdict)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, the manifest names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, mm := range want {
				got, ok := res.Metrics[mm.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s is in the manifest and was not reported", w.name, traced, mm.Name)
				case got.Unit != mm.Unit:
					t.Errorf("%s: %s reported in %q, the manifest says %q", w.name, mm.Name, got.Unit, mm.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s is %v", w.name, traced, mm.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, mm.Name, got.Value)
				}
			}
		}
	}
}

// TestCompare checks the verdicts of the tool the acceptance criteria are
// judged with, against a manifest of its own.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(manifest, []byte(`{
		"workloads": [{"name": "w", "why": "test"}],
		"end_to_end": [
			{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "latency", "unit": "us", "better": "lower", "bound": 0.1},
			{"name": "memory", "unit": "MB", "better": "lower", "bound": 0.1},
			{"name": "noisy", "unit": "s", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "layer.count", "unit": "count", "better": "lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, values map[string][]float64) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		for i := 0; i < 3; i++ {
			r := result{Workload: "w", Correct: true, Attempted: 1, Metrics: map[string]metric{}}
			for k, v := range values {
				r.Metrics[k] = metric{Value: v[i]}
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", map[string][]float64{
		"rate": {100, 101, 102}, "latency": {100, 101, 102}, "memory": {100, 101, 102},
		"noisy": {100, 150, 200}, "layer.count": {7, 7, 7},
	})
	b := write("b.jsonl", map[string][]float64{
		"rate": {50, 51, 52}, "latency": {50, 51, 52}, "memory": {101, 102, 103},
		"noisy": {100, 150, 200}, "layer.count": {9, 9, 9},
	})
	var out bytes.Buffer
	worse, err := compareFiles(manifest, a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a halved rate was not reported as worse")
	}
	for name, verdict := range map[string]string{
		"rate": "worse", "latency": "better", "memory": "same", "noisy": "unresolved",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == name {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %q, want %q", name, f[len(f)-1], verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in:\n%s", name, out.String())
		}
	}
}
