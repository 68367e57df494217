package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"camus/internal/compiler"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/workload"
)

// ScenarioConfig parameterizes the stateful-scenario throughput sweep:
// each scenario workload (IoT threshold-over-window, DDoS heavy-hitter)
// runs against the keyed-state engine at each worker count. Packets are
// partitioned across lanes by flow key — the same locate-keyed affinity
// the sharded dataplane applies to market data — and each lane's
// goroutine drives ProcessBatchOn over its share.
type ScenarioConfig struct {
	Workers []int // worker counts to sweep (default 1,2,4)
	Packets int   // packets per run (default 200000)
	Keys    int   // distinct flow keys (default 256)
	Batch   int   // packets per ProcessBatchOn call (default 64)
	Seed    int64
}

// ScenarioSweepWorkers is the default worker axis.
var ScenarioSweepWorkers = []int{1, 2, 4}

// ScenarioPoint is one (scenario, workers) row.
//
// Like the dataplane sweep, two throughput figures are reported.
// WallPacketsPerSec is the wall-clock rate on this host and reflects
// lane parallelism only when the host has the cores (CPUs in the JSON).
// PacketsPerSec is the lane-parallel rate workers/LaneNsPerPacket, from
// each lane's busy clock on the real code path; the engine takes no lock
// on the packet path, so nothing serializes the lanes.
type ScenarioPoint struct {
	Scenario          string  `json:"scenario"`
	Workers           int     `json:"workers"`
	Packets           int     `json:"packets"`
	Keys              int     `json:"keys"`
	Forwarded         uint64  `json:"forwarded"`   // packets to the forward port
	Alerts            uint64  `json:"alerts"`      // packets to the alert port
	Updates           uint64  `json:"updates"`     // register updates folded
	EvictLossy        uint64  `json:"evict_lossy"` // in-window cells evicted (0 at this key count)
	WallSeconds       float64 `json:"wall_seconds"`
	WallPacketsPerSec float64 `json:"wall_packets_per_sec"`
	LaneNsPerPacket   float64 `json:"lane_ns_per_packet"` // measured lane busy cost
	PacketsPerSec     float64 `json:"packets_per_sec"`    // workers / lane cost
	NsPerPacket       float64 `json:"ns_per_packet"`
	AllocsPerOp       float64 `json:"allocs_per_op"` // heap allocations per packet, steady state
}

// scenarioRun is one compiled scenario's pre-generated, lane-partitioned
// feed: batches[lane] is a sequence of ProcessBatchOn-shaped slices.
type scenarioRun struct {
	prog    *compiler.Program
	batches [][]laneBatch
	packets int
}

type laneBatch struct {
	vals [][]uint64
	now  []time.Duration
}

// genScenarioRun compiles the scenario and materializes its feed,
// sharded by flow key across lanes.
func genScenarioRun(sc workload.Scenario, lanes, packets, keys, batch int, seed int64) (*scenarioRun, error) {
	sp, err := spec.Parse(sc.SpecSrc)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: spec: %w", sc.Name, err)
	}
	prog, err := compiler.CompileSource(sp, sc.RulesSrc, compiler.Options{})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: compile: %w", sc.Name, err)
	}
	lookup := func(name string) (int, bool) {
		i, err := prog.FieldIndex(name)
		return i, err == nil
	}
	gen := sc.NewGen(workload.ScenarioFeedConfig{Keys: keys, Seed: seed}, lookup)
	run := &scenarioRun{prog: prog, batches: make([][]laneBatch, lanes), packets: packets}
	cur := make([]laneBatch, lanes)
	flush := func(l int) {
		if len(cur[l].vals) > 0 {
			run.batches[l] = append(run.batches[l], cur[l])
			cur[l] = laneBatch{}
		}
	}
	for i := 0; i < packets; i++ {
		vals := make([]uint64, len(prog.Fields))
		at := gen.Next(vals)
		l := int(gen.Key(vals) % uint64(lanes))
		cur[l].vals = append(cur[l].vals, vals)
		cur[l].now = append(cur[l].now, at)
		if len(cur[l].vals) == batch {
			flush(l)
		}
	}
	for l := 0; l < lanes; l++ {
		flush(l)
	}
	return run, nil
}

// runScenario executes one measured run: W lane goroutines drive
// their shares through ProcessBatchOn behind a start gate, so goroutine
// setup stays outside the measured window and outside the allocation
// accounting.
func runScenario(run *scenarioRun, sc workload.Scenario, workers int) (ScenarioPoint, error) {
	sw, err := pipeline.New(run.prog, pipeline.DefaultConfig())
	if err != nil {
		return ScenarioPoint{}, err
	}
	sw.State().EnsureLanes(workers)

	type laneCount struct {
		fwd, alert uint64
		busyNs     int64
		_          [5]uint64 // keep lanes off each other's cache line
	}
	counts := make([]laneCount, workers)
	outs := make([][]pipeline.Result, workers)
	maxB := 0
	for l := 0; l < workers; l++ {
		for _, b := range run.batches[l] {
			if len(b.vals) > maxB {
				maxB = len(b.vals)
			}
		}
	}
	for l := range outs {
		outs[l] = make([]pipeline.Result, maxB)
	}

	// Warm pass: each lane replays its first batch once with timestamps
	// one window era in the future, exercising every one-time path (bank
	// cell claims, result buffers) without touching
	// the windows the measured run scores — the warm cells sit in a
	// later epoch, where the measured run's own epoch makes them read as
	// zero and evict as expired (transparently). Warm-phase register
	// accounting is subtracted below.
	warmAt := 1000 * time.Duration(workload.ScenarioWinUS) * time.Microsecond
	for l := 0; l < workers; l++ {
		if len(run.batches[l]) > 0 {
			b := run.batches[l][0]
			warmNow := make([]time.Duration, len(b.vals))
			for i := range warmNow {
				warmNow[i] = warmAt
			}
			sw.ProcessBatchOn(l, b.vals, warmNow, outs[l][:len(b.vals)])
		}
	}
	warmStats := sw.State().Stats()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for l := 0; l < workers; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			<-start
			t0 := time.Now()
			var fwd, alert uint64
			out := outs[l]
			for _, b := range run.batches[l] {
				o := out[:len(b.vals)]
				sw.ProcessBatchOn(l, b.vals, b.now, o)
				for i := range o {
					for _, p := range o[i].Ports {
						switch p {
						case sc.ForwardPort:
							fwd++
						case sc.AlertPort:
							alert++
						}
					}
				}
			}
			counts[l].busyNs = time.Since(t0).Nanoseconds()
			counts[l].fwd, counts[l].alert = fwd, alert
		}(l)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	wall0 := time.Now()
	close(start)
	wg.Wait()
	wallNs := time.Since(wall0).Nanoseconds()
	runtime.ReadMemStats(&after)

	pt := ScenarioPoint{
		Scenario: sc.Name,
		Workers:  workers,
		Packets:  run.packets,
	}
	var busyNs int64
	for l := range counts {
		pt.Forwarded += counts[l].fwd
		pt.Alerts += counts[l].alert
		busyNs += counts[l].busyNs
	}
	st := sw.State().Stats()
	pt.Updates = st.Updates - warmStats.Updates
	pt.EvictLossy = st.EvictLossy - warmStats.EvictLossy
	pt.WallSeconds = float64(wallNs) / 1e9
	pt.WallPacketsPerSec = float64(run.packets) / pt.WallSeconds
	pt.LaneNsPerPacket = float64(busyNs) / float64(run.packets)
	pt.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(run.packets)

	pt.PacketsPerSec = float64(workers) * 1e9 / pt.LaneNsPerPacket
	pt.NsPerPacket = 1e9 / pt.PacketsPerSec
	return pt, nil
}

// ScenarioSweep runs both scenario workloads across worker counts. Rows
// are ordered scenario-major, then worker count.
func ScenarioSweep(cfg ScenarioConfig) ([]ScenarioPoint, error) {
	if cfg.Workers == nil {
		cfg.Workers = ScenarioSweepWorkers
	}
	if cfg.Packets <= 0 {
		cfg.Packets = 200000
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 256
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 64
	}
	var out []ScenarioPoint
	for _, sc := range workload.Scenarios() {
		for _, w := range cfg.Workers {
			if w <= 0 {
				return nil, fmt.Errorf("scenario sweep: invalid worker count %d", w)
			}
			run, err := genScenarioRun(sc, w, cfg.Packets, cfg.Keys, cfg.Batch, cfg.Seed)
			if err != nil {
				return nil, err
			}
			pt, err := runScenario(run, sc, w)
			if err != nil {
				return nil, err
			}
			pt.Keys = cfg.Keys
			out = append(out, pt)
		}
	}
	return out, nil
}

// FormatScenarios renders the sweep as aligned tables, one per scenario.
func FormatScenarios(pts []ScenarioPoint) string {
	var b strings.Builder
	last := ""
	for _, p := range pts {
		if p.Scenario != last {
			if last != "" {
				b.WriteString("\n")
			}
			fmt.Fprintf(&b, "Stateful scenario: %s (%d keys, %d packets)\n", p.Scenario, p.Keys, p.Packets)
			fmt.Fprintf(&b, "%8s %10s %12s %12s %10s %12s %9s\n",
				"workers", "capacity", "ns/pkt", "wall pkt/s", "alerts", "updates", "allocs/op")
			last = p.Scenario
		}
		fmt.Fprintf(&b, "%8d %10.0f %12.1f %12.0f %10d %12d %9.3f\n",
			p.Workers, p.PacketsPerSec, p.NsPerPacket, p.WallPacketsPerSec,
			p.Alerts, p.Updates, p.AllocsPerOp)
	}
	return b.String()
}
