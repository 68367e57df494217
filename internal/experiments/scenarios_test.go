package experiments

import (
	"strings"
	"testing"
)

// TestScenarioSweepAcceptance: at 4 workers both scenario workloads run
// without allocating on the packet path and without lossy evictions, and
// neither run is degenerate. (Decisions are held to the map model by
// pipeline's TestKeyedDifferentialOracle.)
func TestScenarioSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector; TestScenarioRaceSmoke covers the concurrency")
	}
	pts, err := ScenarioSweep(ScenarioConfig{Workers: []int{4}, Packets: 60000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatScenarios(pts))
	if len(pts) != 2 || pts[0].Scenario == pts[1].Scenario {
		t.Fatalf("expected one row per scenario, got %+v", pts)
	}
	for _, p := range pts {
		if p.Alerts == 0 || p.Forwarded == 0 {
			t.Errorf("%s: degenerate run (fwd=%d alerts=%d)", p.Scenario, p.Forwarded, p.Alerts)
		}
		// Keyed banks are sized for the working set: nothing evicted live.
		if p.EvictLossy != 0 {
			t.Errorf("%s: %d lossy evictions", p.Scenario, p.EvictLossy)
		}
		if p.AllocsPerOp > 0.05 {
			t.Errorf("%s: %.3f allocs/packet on the hot path", p.Scenario, p.AllocsPerOp)
		}
	}
}

// TestScenarioSweepDeterministic: the same seed reproduces the same
// forwarding decisions and register activity regardless of lane timing,
// across two full sweeps.
func TestScenarioSweepDeterministic(t *testing.T) {
	cfg := ScenarioConfig{Workers: []int{2}, Packets: 12000, Seed: 42}
	a, err := ScenarioSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScenarioSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Forwarded != b[i].Forwarded || a[i].Alerts != b[i].Alerts || a[i].Updates != b[i].Updates {
			t.Errorf("%s: run A %d/%d/%d vs run B %d/%d/%d",
				a[i].Scenario,
				a[i].Forwarded, a[i].Alerts, a[i].Updates,
				b[i].Forwarded, b[i].Alerts, b[i].Updates)
		}
	}
}

// TestScenarioRaceSmoke is a small parallel sweep sized for the -race
// build: both scenarios drive 4 lanes concurrently.
func TestScenarioRaceSmoke(t *testing.T) {
	pts, err := ScenarioSweep(ScenarioConfig{Workers: []int{4}, Packets: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("expected 2 points, got %d", len(pts))
	}
}

func TestScenarioSweepValidation(t *testing.T) {
	if _, err := ScenarioSweep(ScenarioConfig{Workers: []int{0}}); err == nil {
		t.Fatal("worker count 0 should error")
	}
}

func TestFormatScenarios(t *testing.T) {
	pts, err := ScenarioSweep(ScenarioConfig{Workers: []int{1}, Packets: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatScenarios(pts)
	for _, want := range []string{"iot-threshold", "ddos-heavy-hitter", "wall pkt/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
