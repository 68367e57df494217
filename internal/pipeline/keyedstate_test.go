package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/workload"
)

// ddosSpecSrc is a minimal per-source heavy-hitter spec: a packet header
// with a source key and a 1ms per-source counter window.
const ddosSpecSrc = `
header_type pkt_t {
    fields {
        src: 32;
        dst: 32;
        len: 16;
    }
}
header pkt_t pkt;
@query_field(pkt.src)
@query_field(pkt.dst)
@query_field(pkt.len)
@query_counter(hits, 1000)
`

const ddosRulesSrc = `
hits[pkt.src] >= 100 : fwd(2)
hits[pkt.src] < 100 : fwd(1)
true : hits[pkt.src] <- count()
`

func buildKeyedSwitch(t testing.TB, cfg Config) (*Switch, *compiler.Program) {
	t.Helper()
	sp, err := spec.Parse(ddosSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.CompileSource(sp, ddosRulesSrc, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw, prog
}

func ddosValues(prog *compiler.Program, src, dst, ln uint64) []uint64 {
	vals := make([]uint64, len(prog.Fields))
	for i, f := range prog.Fields {
		switch f.Name {
		case "pkt.src":
			vals[i] = src
		case "pkt.dst":
			vals[i] = dst
		case "pkt.len":
			vals[i] = ln
		}
	}
	return vals
}

// TestKeyedCounterEndToEnd drives the compiled keyed program through the
// switch: per-source counts must gate forwarding independently per key
// and reset at the tumbling-window boundary.
func TestKeyedCounterEndToEnd(t *testing.T) {
	sw, prog := buildKeyedSwitch(t, DefaultConfig())
	window := time.Millisecond

	run := func(src uint64, n int, base time.Duration) (port1, port2 int) {
		for i := 0; i < n; i++ {
			vals := ddosValues(prog, src, 9, 64)
			res := sw.Process(vals, base+time.Duration(i)*time.Microsecond)
			if res.Dropped || len(res.Ports) != 1 {
				t.Fatalf("packet %d of src %d: unexpected result %+v", i, src, res)
			}
			switch res.Ports[0] {
			case 1:
				port1++
			case 2:
				port2++
			default:
				t.Fatalf("unexpected port %d", res.Ports[0])
			}
		}
		return
	}

	// 150 packets from src 7 in one window: reads see the pre-update
	// count, so exactly 100 pass before the threshold trips.
	p1, p2 := run(7, 150, 0)
	if p1 != 100 || p2 != 50 {
		t.Fatalf("src 7: port1=%d port2=%d, want 100/50", p1, p2)
	}
	// A different key is independent state.
	p1, p2 = run(8, 50, 200*time.Microsecond)
	if p1 != 50 || p2 != 0 {
		t.Fatalf("src 8: port1=%d port2=%d, want 50/0", p1, p2)
	}
	// Next tumbling window: src 7's count restarts.
	p1, p2 = run(7, 50, window+10*time.Microsecond)
	if p1 != 50 || p2 != 0 {
		t.Fatalf("src 7 after roll: port1=%d port2=%d, want 50/0", p1, p2)
	}
}

// TestKeyedCrossLaneCombine updates the same key from two lanes and
// checks reads combine counts, sums, min/max and avg across lanes.
func TestKeyedCrossLaneCombine(t *testing.T) {
	e := NewKeyedState(64, nil)
	e.EnsureLanes(2)
	slot := e.EnsureVar("v[pkt.src]", time.Millisecond)
	w := time.Millisecond

	e.Update(0, slot, 5, false, 10, w, 0)
	e.Update(0, slot, 5, false, 2, w, 0)
	e.Update(1, slot, 5, false, 30, w, 0)

	for _, tc := range []struct {
		agg  AggKind
		want uint64
	}{
		{AggCount, 3}, {AggSum, 42}, {AggMin, 2}, {AggMax, 30}, {AggAvg, 14}, {AggLast, 30},
	} {
		if got := e.Read(slot, 5, tc.agg, w, 0); got != tc.want {
			t.Errorf("combined agg %d = %d, want %d", tc.agg, got, tc.want)
		}
	}
}

// TestKeyedWindowExpiryNonMutating checks reads never advance window
// state: an expired cell reads zero, and reading it (or snapshotting the
// variable) leaves the underlying cell intact for forensic scrapes.
func TestKeyedWindowExpiryNonMutating(t *testing.T) {
	e := NewKeyedState(64, nil)
	w := time.Millisecond
	slot := e.EnsureVar("v[pkt.src]", w)
	e.Update(0, slot, 5, false, 7, w, 100*time.Microsecond)

	if got := e.Read(slot, 5, AggSum, w, 200*time.Microsecond); got != 7 {
		t.Fatalf("in-window sum = %d, want 7", got)
	}
	// One window later the value reads zero...
	late := w + 300*time.Microsecond
	if got := e.Read(slot, 5, AggSum, w, late); got != 0 {
		t.Fatalf("expired sum = %d, want 0", got)
	}
	// ...but the read mutated nothing: the old window's value is still
	// there when asked for at the old time.
	if got := e.Read(slot, 5, AggSum, w, 200*time.Microsecond); got != 7 {
		t.Fatalf("post-expiry re-read at old now = %d, want 7 (read mutated state)", got)
	}
	if snap := e.Snapshot("v[pkt.src]", "sum", 200*time.Microsecond, 0); len(snap) != 1 || snap[0].Key != 5 || snap[0].Value != 7 {
		t.Fatalf("snapshot at old now = %+v, want key 5 value 7", snap)
	}
	// Snapshot at the late time excludes the expired key.
	if snap := e.Snapshot("v[pkt.src]", "sum", late, 0); len(snap) != 0 {
		t.Fatalf("snapshot after expiry = %+v, want empty", snap)
	}
}

// TestKeyedWindowBoundaries pins the tumbling-window grid as a sequence
// of timed updates and reads per row: windows are epoch-aligned, so an
// idle stretch of several windows lands the next sample on the grid, not
// on its own arrival time, and a sample exactly on a boundary opens the
// new window instead of extending the old one.
func TestKeyedWindowBoundaries(t *testing.T) {
	const us = time.Microsecond
	const w = 100 * us
	type step struct {
		at   time.Duration
		upd  bool // fold v; otherwise read agg and expect v
		agg  AggKind
		v    uint64
		note string
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"idle skip", []step{
			{at: 30 * us, upd: true, v: 5},
			{at: 40 * us, agg: AggCount, v: 1, note: "first window"},
			{at: 380 * us, upd: true, v: 7}, // 3.5 windows idle
			{at: 380 * us, agg: AggCount, v: 1, note: "only the sample that ended the idle stretch"},
			{at: 380 * us, agg: AggSum, v: 7},
			{at: 399 * us, agg: AggCount, v: 1, note: "window [300µs,400µs) is grid-aligned, not arrival-aligned"},
			{at: 400 * us, agg: AggCount, v: 0, note: "boundary rolls"},
		}},
		{"exact boundary", []step{
			{at: 0, upd: true, v: 1},
			{at: 99 * us, upd: true, v: 2},
			{at: 99 * us, agg: AggCount, v: 2, note: "before the boundary"},
			{at: 100 * us, upd: true, v: 3},
			{at: 100 * us, agg: AggCount, v: 1, note: "sample on the boundary opens the new window"},
			{at: 100 * us, agg: AggLast, v: 3},
		}},
		{"never written", []step{{at: 0, agg: AggCount, v: 0}, {at: 0, agg: AggLast, v: 0}}},
	} {
		e := NewKeyedState(64, nil)
		slot := e.EnsureVar("v[pkt.src]", w)
		for i, st := range tc.steps {
			if st.upd {
				e.Update(0, slot, 5, false, st.v, w, st.at)
			} else if got := e.Read(slot, 5, st.agg, w, st.at); got != st.v {
				t.Errorf("%s step %d: agg %d at %v = %d, want %d (%s)", tc.name, i, st.agg, st.at, got, st.v, st.note)
			}
		}
	}
}

// TestKeyedEviction fills a bank's probe run and checks the engine
// prefers expired cells (free) and falls back to the oldest window
// (lossy, counted).
func TestKeyedEviction(t *testing.T) {
	// Capacity equal to the probe limit: every key collides into one run.
	e := NewKeyedState(keyedProbeLimit, nil)
	w := time.Millisecond
	slot := e.EnsureVar("v[pkt.src]", w)

	for k := uint64(0); k < keyedProbeLimit; k++ {
		e.Update(0, slot, k, false, 1, w, 0)
	}
	if s := e.Stats(); s.EvictExpired != 0 || s.EvictLossy != 0 || s.Cells != keyedProbeLimit {
		t.Fatalf("after fill: %+v", s)
	}
	// Same window, one more key: must evict lossily.
	e.Update(0, slot, 1000, false, 1, w, 0)
	if s := e.Stats(); s.EvictLossy != 1 {
		t.Fatalf("expected one lossy eviction, got %+v", s)
	}
	// Next window: everything is expired, eviction is free.
	e.Update(0, slot, 2000, false, 1, w, w+time.Microsecond)
	s := e.Stats()
	if s.EvictExpired != 1 || s.EvictLossy != 1 {
		t.Fatalf("expected one expired eviction, got %+v", s)
	}
	if got := e.Read(slot, 2000, AggCount, w, w+time.Microsecond); got != 1 {
		t.Fatalf("evicted-slot reinsert count = %d, want 1", got)
	}
}

// TestKeyedVarsSorted checks the observability name surface.
func TestKeyedVarsSorted(t *testing.T) {
	e := NewKeyedState(64, nil)
	e.EnsureVar("zeta", 0)
	e.EnsureVar("alpha[pkt.src]", time.Millisecond)
	vars := e.Vars()
	if len(vars) != 2 || vars[0] != "alpha[pkt.src]" || vars[1] != "zeta" {
		t.Fatalf("Vars() = %v", vars)
	}
	if e.Window("alpha[pkt.src]") != time.Millisecond {
		t.Fatalf("Window() = %v", e.Window("alpha[pkt.src]"))
	}
}

// oracleCell mirrors one (slot, key) accumulator with the same
// epoch-aligned tumbling semantics, behind a plain map and mutex.
type oracleCell struct {
	win                        int64
	count, sum, min, max, last uint64
}

type oracleState struct {
	mu    sync.Mutex
	cells map[[2]uint64]*oracleCell
}

func newOracle() *oracleState { return &oracleState{cells: make(map[[2]uint64]*oracleCell)} }

func (o *oracleState) update(slot int, key uint64, zeroArg bool, arg uint64, window, now time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := arg
	if zeroArg {
		v = 0
	}
	cur := epochStart(now, window)
	k := [2]uint64{uint64(slot), key}
	c := o.cells[k]
	if c == nil {
		c = &oracleCell{win: cur}
		o.cells[k] = c
	}
	if c.win != cur {
		*c = oracleCell{win: cur}
	}
	if c.count == 0 {
		c.min, c.max = v, v
	} else {
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	c.count++
	c.sum += v
	c.last = v
}

func (o *oracleState) read(slot int, key uint64, agg AggKind, window, now time.Duration) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := o.cells[[2]uint64{uint64(slot), key}]
	if c == nil || (window > 0 && c.win != epochStart(now, window)) {
		return 0
	}
	return foldAgg(agg, c.count, c.sum, c.min, c.max, c.last)
}

// TestKeyedDifferentialOracle holds the engine to the map+mutex model,
// the baseline every retired state path was measured against: raw bank
// operations, then whole scenario workloads through the switch.
func TestKeyedDifferentialOracle(t *testing.T) {
	t.Run("random-ops", oracleRandomOps)
	t.Run("scenarios", oracleScenarios)
}

// oracleRandomOps is the keyed-bank quick-check: random keys, arguments
// and times driven concurrently from per-lane writer goroutines (the
// single-writer contract) against the oracle.
// The run is sized so no lossy eviction occurs — expired-cell evictions
// are exercised and are exactly transparent under epoch-aligned windows
// — so the engine must agree with the unbounded oracle bit-for-bit.
// Run under -race this doubles as the engine's concurrency smoke:
// readers snapshot cells while writers fold into them.
func oracleRandomOps(t *testing.T) {
	const (
		lanes   = 4
		keys    = 64 // per lane, disjoint across lanes
		rounds  = 3  // tumbling windows crossed
		perLane = 2000
	)
	window := time.Millisecond
	e := NewKeyedState(1024, nil)
	e.EnsureLanes(lanes)
	slotA := e.EnsureVar("a[pkt.src]", window)
	slotB := e.EnsureVar("b[pkt.src]", 0) // windowless plain register
	oracle := newOracle()

	type op struct {
		slot    int
		key     uint64
		zeroArg bool
		arg     uint64
		now     time.Duration
	}
	plans := make([][]op, lanes)
	for l := 0; l < lanes; l++ {
		r := rand.New(rand.NewSource(int64(100 + l)))
		ops := make([]op, perLane)
		for i := range ops {
			slot := slotA
			if r.Intn(4) == 0 {
				slot = slotB
			}
			ops[i] = op{
				slot:    slot,
				key:     uint64(l*keys + r.Intn(keys)), // lane-disjoint keys
				zeroArg: r.Intn(3) == 0,
				arg:     uint64(r.Intn(1 << 20)),
				now:     time.Duration(r.Int63n(int64(rounds) * int64(window))),
			}
		}
		plans[l] = ops
	}

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers: unchecked results, pure race coverage of the
	// seqlock while writers run.
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Read(slotA, uint64(r.Intn(lanes*keys)), AggAvg, window, time.Duration(r.Int63n(int64(rounds)*int64(window))))
				e.Snapshot("a[pkt.src]", "count", 0, 8)
			}
		}(g)
	}
	for l := 0; l < lanes; l++ {
		writers.Add(1)
		go func(l int) {
			defer writers.Done()
			for _, o := range plans[l] {
				w := window
				if o.slot == slotB {
					w = 0
				}
				e.Update(l, o.slot, o.key, o.zeroArg, o.arg, w, o.now)
			}
		}(l)
	}
	// Drain writers, then stop readers.
	writers.Wait()
	close(stop)
	readers.Wait()

	if s := e.Stats(); s.EvictLossy != 0 {
		t.Fatalf("differential run is only exact without lossy evictions; got %+v (grow capacity or shrink keys)", s)
	}

	// Feed the oracle serially: per-key order equals the engine's (each
	// key is written by exactly one lane), and cross-key order is
	// irrelevant to per-key state.
	for l := 0; l < lanes; l++ {
		for _, o := range plans[l] {
			w := window
			if o.slot == slotB {
				w = 0
			}
			oracle.update(o.slot, o.key, o.zeroArg, o.arg, w, o.now)
		}
	}

	aggs := []AggKind{AggCount, AggSum, AggMin, AggMax, AggAvg, AggLast}
	for _, probe := range []time.Duration{
		0, window - 1, window, 2*window - 1, 2 * window, time.Duration(rounds)*window - 1,
	} {
		for key := uint64(0); key < lanes*keys; key++ {
			for _, slot := range []int{slotA, slotB} {
				w := window
				if slot == slotB {
					w = 0
				}
				for _, agg := range aggs {
					got := e.Read(slot, key, agg, w, probe)
					want := oracle.read(slot, key, agg, w, probe)
					if got != want {
						t.Fatalf("slot %d key %d agg %d at %v: engine %d, oracle %d", slot, key, agg, probe, got, want)
					}
				}
			}
		}
	}
}

// oracleScenarios replays both stateful scenario workloads through the
// switch at 1 and 4 lanes — packets sharded to lanes by flow key, one
// goroutine per lane, as the dataplane drives it — and requires every
// forwarding decision to equal the model's: the same install-time
// descriptors over the map oracle, matched by the reference table walk
// (compiler.Table.Lookup) instead of the flattened lookups.
func oracleScenarios(t *testing.T) {
	const packets = 20000
	for _, sc := range workload.Scenarios() {
		sp, err := spec.Parse(sc.SpecSrc)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.CompileSource(sp, sc.RulesSrc, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// 10k packets per second of feed time: the run crosses the
		// scenarios' 1s tumbling-window boundary.
		gen := sc.NewGen(workload.ScenarioFeedConfig{Keys: 64, Rate: 10000, Seed: 5}, func(name string) (int, bool) {
			i, err := prog.FieldIndex(name)
			return i, err == nil
		})
		vals := make([][]uint64, packets)
		at := make([]time.Duration, packets)
		keys := make([]uint64, packets)
		for i := range vals {
			vals[i] = make([]uint64, len(prog.Fields))
			at[i] = gen.Next(vals[i])
			keys[i] = gen.Key(vals[i])
		}

		// Model decisions, serially in feed order. Per-key order is all
		// that matters: a packet reads and writes only its own key's state.
		sw, err := New(prog, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		in := sw.inst.Load()
		oracle := newOracle()
		want := make([][]int, packets)
		alerts, forwards := 0, 0
		row := make([]uint64, len(prog.Fields))
		for i := range vals {
			copy(row, vals[i])
			want[i] = modelProcess(in, oracle, row, at[i])
			for _, p := range want[i] {
				if p == sc.AlertPort {
					alerts++
				} else if p == sc.ForwardPort {
					forwards++
				}
			}
		}
		if alerts == 0 || forwards == 0 {
			t.Fatalf("%s: degenerate run (forwards=%d alerts=%d)", sc.Name, forwards, alerts)
		}

		for _, lanes := range []int{1, 4} {
			sw, err := New(prog, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			sw.State().EnsureLanes(lanes)
			got := make([][]int, packets)
			var wg sync.WaitGroup
			for l := 0; l < lanes; l++ {
				wg.Add(1)
				go func(l int) {
					defer wg.Done()
					row := make([]uint64, len(prog.Fields))
					for i := range vals {
						if int(keys[i]%uint64(lanes)) == l {
							copy(row, vals[i])
							got[i] = sw.ProcessOn(l, row, at[i]).Ports
						}
					}
				}(l)
			}
			wg.Wait()
			if s := sw.State().Stats(); s.EvictLossy != 0 {
				t.Fatalf("%s lanes=%d: %d lossy evictions; the model is unbounded", sc.Name, lanes, s.EvictLossy)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s lanes=%d packet %d (key %d at %v): engine %v, model %v",
						sc.Name, lanes, i, keys[i], at[i], got[i], want[i])
				}
			}
		}
	}
}

// modelProcess is processOne over the oracle: state reads, the reference
// table walk, then the matched action's updates.
func modelProcess(in *installed, o *oracleState, vals []uint64, now time.Duration) []int {
	key := func(idx int32) uint64 {
		if idx < 0 {
			return 0
		}
		return vals[idx]
	}
	for _, rd := range in.reads {
		vals[rd.field] = o.read(int(rd.slot), key(rd.keyIdx), rd.agg, rd.window, now)
	}
	state := in.prog.InitialState
	for i, t := range in.prog.Tables {
		if e, ok := t.Lookup(state, vals[i]); ok {
			state = e.Next
		}
	}
	leaf, ok := in.prog.Leaf.Lookup(state, 0)
	if !ok {
		return nil
	}
	for _, u := range in.upds[leaf.Next] {
		o.update(int(u.slot), key(u.keyIdx), u.zeroArg, key(u.argIdx), u.window, now)
	}
	return in.prog.Actions[leaf.Next].Ports
}

// TestKeyedStateZeroAlloc pins the engine's packet-path allocation
// budget directly (the switch-level budget is TestProcessZeroAlloc).
func TestKeyedStateZeroAlloc(t *testing.T) {
	e := NewKeyedState(256, nil)
	e.EnsureLanes(4)
	slot := e.EnsureVar("v[pkt.src]", time.Millisecond)
	w := time.Millisecond
	var sink uint64
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Update(1, slot, 77, false, 5, w, 0)
		sink += e.Read(slot, 77, AggAvg, w, 0)
	}); allocs != 0 {
		t.Fatalf("keyed update+read allocates %v per op", allocs)
	}
	_ = sink
}

// BenchmarkProcessBatchKeyed measures the keyed stateful hot path — one
// per-source read plus one per-source update per packet — through
// ProcessBatchOn with a multi-lane engine, so the cost includes the
// cross-lane combine. The bench-agreement test holds it to ~0 allocs/op.
func BenchmarkProcessBatchKeyed(b *testing.B) {
	sw, prog := buildKeyedSwitch(b, DefaultConfig())
	sw.State().EnsureLanes(4)
	r := rand.New(rand.NewSource(17))
	for _, batch := range []int{64} {
		b.Run(fmt.Sprintf("batch-%d", batch), func(b *testing.B) {
			values := make([][]uint64, batch)
			now := make([]time.Duration, batch)
			out := make([]Result, batch)
			for i := range values {
				values[i] = ddosValues(prog, uint64(r.Intn(256)), 9, 64)
				now[i] = time.Duration(i) * time.Microsecond
			}
			b.ReportAllocs()
			b.SetBytes(int64(batch * 8 * len(prog.Fields)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessBatchOn(0, values, now, out)
			}
		})
	}
}
