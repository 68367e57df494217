// Package pipeline models the programmable switching ASIC that Camus
// compiles to — the Tofino stand-in of this reproduction.
//
// The model preserves the architectural properties the paper's evaluation
// rests on: a fixed-length sequence of match-action stages (one table
// lookup per stage, single matching entry wins by priority), per-packet
// work that is independent of how many subscriptions are installed,
// bounded SRAM/TCAM per stage, registers with tumbling windows for state
// variables, and a multicast replication engine. Lookup structures are
// flattened state-indexed arrays (see flatlookup.go) — binary-searched
// sorted runs or open-addressed flat tables for exact stages, sorted
// range runs for TCAM stages — so the per-packet path performs a fixed
// number of O(1)/O(log n) array lookups with zero allocation and the
// simulator itself processes tens of millions of messages per second.
package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/compiler"
	"camus/internal/telemetry"
)

// Config sizes the modeled ASIC. The defaults approximate a 32-port
// Tofino-class device (§4: "a 32-port Barefoot Tofino switch, which can
// process packets at 3.25Tbps").
type Config struct {
	Ports        int           // number of front-panel ports
	PortRateGbps float64       // per-port line rate
	Stages       int           // match-action stages available
	SRAMPerStage int           // exact-match entries per stage
	TCAMPerStage int           // ternary/range entries per stage
	PipeLatency  time.Duration // fixed port-to-port processing latency

	// Telemetry, when non-nil, exports the device's hardware-style
	// counters (per-table hit/miss, entry occupancy, register reads)
	// through the registry and enables their hot-path maintenance. Nil
	// keeps Process at its uninstrumented cost.
	Telemetry *telemetry.Registry
}

// DefaultConfig models the 32-port switch used in the paper's testbed.
func DefaultConfig() Config {
	return Config{
		Ports:        32,
		PortRateGbps: 100,
		Stages:       12,
		SRAMPerStage: 120000,
		TCAMPerStage: 6144,
		PipeLatency:  600 * time.Nanosecond,
	}
}

// BandwidthTbps returns the aggregate switching capacity.
func (c Config) BandwidthTbps() float64 {
	return float64(c.Ports) * c.PortRateGbps / 1000
}

// Result is the forwarding decision for one packet.
type Result struct {
	Ports   []int // output ports (shared slice; do not modify)
	Dropped bool
	Group   int // multicast group used, or -1
}

// Switch is an ASIC with a compiled Camus program installed.
//
// The installed configuration (program, lookup tables, leaf, multicast
// groups) is published through a single atomic pointer, mirroring the
// hardware's all-or-nothing table commit: Process is safe to call from
// many goroutines concurrently with Reinstall, and each packet sees one
// consistent program version. Stateless programs (no aggregate/state
// fields) are fully race-free and lock-free. Programs with state
// variables go through the sharded keyed-state engine (keyedstate.go):
// each worker lane owns its banks outright — single writer, no lock on
// the packet path — provided callers honor the ProcessBatchOn contract
// (one goroutine per lane index).
type Switch struct {
	cfg   Config
	inst  atomic.Pointer[installed]
	state *KeyedState

	packets telemetry.Counter // packet count on the pattern-free paths

	// Hardware-style counters, maintained only when cfg.Telemetry is set.
	// The packet path records a single fused sample per packet — which
	// tables missed and whether the packet dropped, packed into one
	// atomic add on a per-program pattern array (see patGen) — so
	// telemetry costs the hot path exactly as many atomic operations as
	// running without it. Per-table hit/miss totals and the
	// forwarded/dropped split are recovered from the patterns at scrape
	// time, the trick real switch drivers use for free counters. Counter
	// identity is by table name, so totals survive Reinstall the way
	// ASIC counters survive table writes.
	tel      *telemetry.Registry
	regReads *telemetry.Counter // @query_counter / state register reads

	ctrMu       sync.Mutex
	tableBase   map[string]uint64             // packets seen before a table first existed
	tableMiss   map[string]*telemetry.Counter // fallback miss counters (wide programs)
	fwdFallback *telemetry.Counter            // fallback forward counter (wide programs)
	gens        []*patGen                     // live pattern generations, oldest first
	foldPackets uint64                        // packets folded out of retired generations
	foldForward uint64                        // forwards folded out of retired generations
	foldMisses  map[string]uint64             // misses folded out of retired generations
}

// installed is one immutable program version: everything Process needs,
// swapped atomically by Reinstall. The lookup structures are the
// flattened arrays of flatlookup.go, built once here so the per-packet
// path performs no map probes and no allocation.
type installed struct {
	prog    *compiler.Program
	tables  []lookupTable
	leaf    leafTable
	groups  [][]int
	pat     []atomic.Uint64 // fused packet/miss-pattern counters (see patGen)
	dropBit uint64          // pattern bit recording "packet dropped"
	ctrs    []tableCounters // fallback per-table miss counters (wide programs)
	// reads and upds are the keyed-state descriptors, fully resolved at
	// install time (extending PR 9's register precompute): variable
	// slots, key/argument field indices, numeric aggregate folds, and
	// windows — so the packet path performs no name-map probe, no string
	// switch, and no first-touch allocation.
	reads []stateRead
	upds  [][]stateUpd
}

// stateRead fills one state field from the keyed engine: values[field] =
// Read(slot, values[keyIdx]). keyIdx < 0 means unkeyed (key 0).
type stateRead struct {
	field  int32
	slot   int32
	keyIdx int32 // pipeline field index of the key value, or -1
	agg    AggKind
	window time.Duration
}

// stateUpd folds one sample into the keyed engine: Update(slot,
// values[keyIdx], values[argIdx]). Negative indices mean unkeyed /
// no-argument; zeroArg is the count() fold.
type stateUpd struct {
	slot    int32
	keyIdx  int32
	argIdx  int32
	zeroArg bool
	window  time.Duration
}

// tableCounters is the fallback per-table counter hook used when a
// program has too many tables for a pattern array; each miss then pays
// its own atomic add.
type tableCounters struct {
	misses *telemetry.Counter
}

// patGen is one program generation's fused telemetry sample array:
// pat[mask] counts packets whose set of missed tables is exactly the
// table bits of mask, with one extra bit recording whether the packet
// was dropped. A single atomic add per packet captures the packet
// count, every table's hit/miss, and the forwarded/dropped split; the
// individual totals are recovered at scrape time by summing patterns.
type patGen struct {
	names []string        // table name per mask bit
	pat   []atomic.Uint64 // length 1 << (len(names)+1); top bit = dropped
}

const (
	// patMaxTables bounds the pattern-array size (2^(n+1) counters).
	// The default device has 12 match stages, so real programs always
	// qualify; wider custom configs fall back to per-table counters.
	patMaxTables = 12
	// keepGens is how many superseded generations stay live before
	// being folded into the cumulative totals. A Process call caught
	// mid-packet by a Reinstall still writes the old generation's
	// array; by the time a program has been replaced this many times,
	// any such call (microseconds long) is long gone.
	keepGens = 4
)

// New builds a Switch for a compiled program, validating that the program
// fits the device's table resources.
func New(prog *compiler.Program, cfg Config) (*Switch, error) {
	if cfg.Ports == 0 {
		tel := cfg.Telemetry
		cfg = DefaultConfig()
		cfg.Telemetry = tel
	}
	if err := CheckResources(prog, cfg); err != nil {
		return nil, err
	}
	sw := &Switch{
		cfg:   cfg,
		tel:   cfg.Telemetry,
		state: NewKeyedState(defaultStateCapacity, cfg.Telemetry),
	}
	if sw.tel != nil {
		sw.tableBase = make(map[string]uint64)
		sw.tableMiss = make(map[string]*telemetry.Counter)
		sw.foldMisses = make(map[string]uint64)
		sw.fwdFallback = new(telemetry.Counter)
		sw.regReads = sw.tel.Counter("camus_pipeline_register_reads_total")
		sw.tel.CounterFunc("camus_pipeline_packets_total", func() float64 {
			sw.ctrMu.Lock()
			defer sw.ctrMu.Unlock()
			return float64(sw.packetsTotalLocked())
		})
		sw.tel.CounterFunc("camus_pipeline_packets_forwarded_total", func() float64 {
			sw.ctrMu.Lock()
			defer sw.ctrMu.Unlock()
			return float64(sw.forwardedLocked())
		})
		sw.tel.CounterFunc("camus_pipeline_packets_dropped_total", func() float64 {
			sw.ctrMu.Lock()
			defer sw.ctrMu.Unlock()
			return float64(sw.packetsTotalLocked()) - float64(sw.forwardedLocked())
		})
	}
	sw.inst.Store(sw.newInstalled(prog))
	sw.publishOccupancy(prog)
	return sw, nil
}

// newInstalled builds the runtime form of a program, attaching the
// per-table counters when telemetry is enabled.
func (sw *Switch) newInstalled(prog *compiler.Program) *installed {
	in := &installed{
		prog:   prog,
		tables: make([]lookupTable, 0, len(prog.Tables)),
		leaf:   buildLeaf(prog.Leaf.Entries),
		groups: prog.Groups,
	}
	for _, t := range prog.Tables {
		in.tables = append(in.tables, buildLookup(t))
	}
	// Resolving state slots here doubles as the pre-create step: every
	// bank a packet can touch exists before the program is published
	// (hardware registers power up zeroed), so reads before any update
	// return zero and the packet path never allocates one lazily. Reads
	// resolve before updates so a declared window wins over the
	// aggregate default for the shared slot.
	for i, f := range prog.Fields {
		if !f.IsState {
			continue
		}
		identity := f.StateVar
		if identity == "" {
			identity = f.Name // programmatic FieldInfo without keyed metadata
		}
		identity = compiler.StateIdentity(identity, f.KeyField)
		slot := sw.state.EnsureVar(identity, fieldWindow(f))
		keyIdx := int32(-1)
		if f.KeyField != "" {
			keyIdx = int32(f.KeyIndex)
		}
		in.reads = append(in.reads, stateRead{
			field: int32(i), slot: int32(slot), keyIdx: keyIdx,
			agg: AggKindOf(f.Agg), window: fieldWindow(f),
		})
	}
	in.upds = make([][]stateUpd, len(prog.Actions))
	for ai := range prog.Actions {
		ups := prog.Actions[ai].Updates
		if len(ups) == 0 {
			continue
		}
		resolved := make([]stateUpd, len(ups))
		for ui, u := range ups {
			su := stateUpd{keyIdx: -1, argIdx: -1, zeroArg: u.Func == "count", window: AggWindow}
			if len(u.Args) > 0 {
				if fi, err := prog.FieldIndex(u.Args[0]); err == nil {
					su.argIdx = int32(fi)
				}
			}
			if u.StateKey != "" {
				if fi, err := prog.FieldIndex(u.StateKey); err == nil {
					su.keyIdx = int32(fi)
				}
			}
			if prog.Spec != nil {
				if v, err := prog.Spec.LookupState(u.Var); err == nil && v.WindowUS > 0 {
					su.window = time.Duration(v.WindowUS) * time.Microsecond
				}
			}
			su.slot = int32(sw.state.EnsureVar(compiler.StateIdentity(u.Var, u.StateKey), su.window))
			resolved[ui] = su
		}
		in.upds[ai] = resolved
	}
	if sw.tel != nil {
		names := make([]string, len(prog.Tables))
		for i, t := range prog.Tables {
			names[i] = t.Name
		}
		sw.ctrMu.Lock()
		now := sw.packetsTotalLocked()
		if len(names) <= patMaxTables {
			g := &patGen{names: names, pat: make([]atomic.Uint64, 1<<uint(len(names)+1))}
			sw.gens = append(sw.gens, g)
			in.pat = g.pat
			in.dropBit = 1 << uint(len(names))
			sw.foldOldLocked()
		} else {
			in.ctrs = make([]tableCounters, len(names))
			for i, name := range names {
				c := sw.tableMiss[name]
				if c == nil {
					c = new(telemetry.Counter)
					sw.tableMiss[name] = c
				}
				in.ctrs[i] = tableCounters{misses: c}
			}
		}
		for _, name := range names {
			if _, ok := sw.tableBase[name]; ok {
				continue
			}
			// Every packet traverses every table of the fixed pipeline
			// exactly once, so a table's lookups since it first appeared
			// are packets − base, and hits = lookups − misses: neither
			// side costs the packet path anything beyond the one fused
			// pattern sample.
			sw.tableBase[name] = now
			name := name
			sw.tel.CounterFunc("camus_pipeline_table_misses_total", func() float64 {
				sw.ctrMu.Lock()
				defer sw.ctrMu.Unlock()
				return float64(sw.missesLocked(name))
			}, telemetry.L("table", name))
			sw.tel.CounterFunc("camus_pipeline_table_hits_total", func() float64 {
				sw.ctrMu.Lock()
				defer sw.ctrMu.Unlock()
				lookups := sw.packetsTotalLocked() - sw.tableBase[name]
				return float64(lookups) - float64(sw.missesLocked(name))
			}, telemetry.L("table", name))
		}
		sw.ctrMu.Unlock()
	}
	return in
}

// packetsTotalLocked sums the direct packet counter, folded totals, and
// every live pattern generation. ctrMu must be held.
func (sw *Switch) packetsTotalLocked() uint64 {
	total := sw.packets.Load() + sw.foldPackets
	for _, g := range sw.gens {
		for i := range g.pat {
			total += g.pat[i].Load()
		}
	}
	return total
}

// forwardedLocked returns the cumulative forwarded-packet count: live
// pattern samples without the drop bit, folded totals, and the fallback
// counter. ctrMu must be held.
func (sw *Switch) forwardedLocked() uint64 {
	total := sw.fwdFallback.Load() + sw.foldForward
	for _, g := range sw.gens {
		drop := uint64(1) << uint(len(g.names))
		for mask := range g.pat {
			if uint64(mask)&drop == 0 {
				total += g.pat[mask].Load()
			}
		}
	}
	return total
}

// missesLocked returns a table's cumulative miss count across folded
// totals, the fallback counter, and live pattern generations that
// include the table. ctrMu must be held.
func (sw *Switch) missesLocked(table string) uint64 {
	total := sw.foldMisses[table]
	if c := sw.tableMiss[table]; c != nil {
		total += c.Load()
	}
	for _, g := range sw.gens {
		for bit, n := range g.names {
			if n != table {
				continue
			}
			b := uint64(1) << uint(bit)
			for mask := range g.pat {
				if uint64(mask)&b != 0 {
					total += g.pat[mask].Load()
				}
			}
			break
		}
	}
	return total
}

// foldOldLocked folds generations older than keepGens into the
// cumulative totals, bounding memory under subscription churn. Retired
// arrays are drained with atomic loads; see keepGens for why late
// writers are not a practical concern. ctrMu must be held.
func (sw *Switch) foldOldLocked() {
	for len(sw.gens) > keepGens {
		g := sw.gens[0]
		sw.gens = sw.gens[1:]
		drop := uint64(1) << uint(len(g.names))
		for mask := range g.pat {
			n := g.pat[mask].Load()
			if n == 0 {
				continue
			}
			sw.foldPackets += n
			if uint64(mask)&drop == 0 {
				sw.foldForward += n
			}
			for bit, name := range g.names {
				if uint64(mask)&(uint64(1)<<uint(bit)) != 0 {
					sw.foldMisses[name] += n
				}
			}
		}
	}
}

// publishOccupancy exports the installed program's table occupancy and
// resource footprint as gauges — the numbers §4's Fig. 5 plots, readable
// live from /metrics instead of scraped from a one-off print.
func (sw *Switch) publishOccupancy(prog *compiler.Program) {
	if sw.tel == nil {
		return
	}
	rep := Plan(prog, sw.cfg)
	for _, d := range rep.Demands {
		sw.tel.Gauge("camus_pipeline_table_entries", telemetry.L("table", d.Name)).Set(int64(d.SRAM + d.TCAM))
	}
	sw.tel.Gauge("camus_pipeline_sram_used").Set(int64(rep.TotalSRAM))
	sw.tel.Gauge("camus_pipeline_tcam_used").Set(int64(rep.TotalTCAM))
	sw.tel.Gauge("camus_pipeline_stages_used").Set(int64(rep.StagesUsed))
	sw.tel.Gauge("camus_pipeline_sram_budget").Set(int64(rep.SRAMBudget))
	sw.tel.Gauge("camus_pipeline_tcam_budget").Set(int64(rep.TCAMBudget))
	sw.tel.Gauge("camus_pipeline_stage_budget").Set(int64(rep.StageBudget))
	sw.tel.Gauge("camus_pipeline_multicast_groups").Set(int64(len(prog.Groups)))
	sw.tel.Gauge("camus_pipeline_states").Set(int64(prog.Stats.States))
}

// AggWindow is the default tumbling-window length for aggregate state
// variables (the paper's example uses a 100µs window).
const AggWindow = 100 * time.Microsecond

// fieldWindow returns a state field's declared tumbling window, falling
// back to the default for implicit aggregates.
func fieldWindow(f compiler.FieldInfo) time.Duration {
	if f.WindowUS > 0 {
		return time.Duration(f.WindowUS) * time.Microsecond
	}
	return AggWindow
}

// Process runs one packet through the pipeline on lane 0. values must
// contain the packet's header field values in program field order;
// state-field slots are overwritten with register reads. now is the
// packet's arrival time, used for tumbling windows.
func (sw *Switch) Process(values []uint64, now time.Duration) Result {
	in := sw.inst.Load() // one consistent program version per packet
	return sw.processOne(in, 0, values, now)
}

// ProcessOn is Process for one state lane — the unbatched form of
// ProcessBatchOn, with the same single-writer contract per lane.
//
//camus:hotpath bench=BenchmarkProcessBatchKeyed
func (sw *Switch) ProcessOn(lane int, values []uint64, now time.Duration) Result {
	in := sw.inst.Load()
	return sw.processOne(in, lane, values, now)
}

// ProcessBatch runs a batch of packets through the pipeline on lane 0,
// filling out[i] with the forwarding decision for values[i] arriving at
// now[i]. The three slices must have equal length. The program pointer
// is loaded once for the whole batch — every packet of a batch sees the
// same program version, and the per-packet cost drops by the atomic load
// and its cache miss. Telemetry semantics are identical to per-packet
// Process calls: one fused miss-pattern sample per packet.
//
//camus:hotpath bench=BenchmarkProcessBatch
func (sw *Switch) ProcessBatch(values [][]uint64, now []time.Duration, out []Result) {
	sw.ProcessBatchOn(0, values, now, out)
}

// ProcessBatchOn is ProcessBatch for one state lane — the sharded
// dataplane's entry point. The single-writer contract: at most one
// goroutine issues packets for a given lane index at a time, and the
// embedder calls State().EnsureLanes up front. Reads combine across
// lanes (see KeyedState.Read); updates touch only the caller's lane.
//
//camus:hotpath bench=BenchmarkProcessBatchKeyed
func (sw *Switch) ProcessBatchOn(lane int, values [][]uint64, now []time.Duration, out []Result) {
	if len(values) != len(now) || len(values) != len(out) {
		//camus:alloc-ok panic argument on the caller-misuse path; the string itself is static
		panic("pipeline: ProcessBatch slice lengths differ")
	}
	in := sw.inst.Load() // one consistent program version per batch
	for i := range values {
		out[i] = sw.processOne(in, lane, values[i], now[i])
	}
}

// processOne is the per-packet hot path: a fixed sequence of flattened
// array-indexed stage lookups, no hashing beyond the state-bank probe,
// no allocation.
//
//camus:hotpath
func (sw *Switch) processOne(in *installed, lane int, values []uint64, now time.Duration) Result {
	// Stage 0: state reads populate metadata. Slots, keys, folds and
	// windows were resolved at install time (installed.reads), so the
	// read is a bank probe plus the fold — no name-map probe, no lock.
	for i := range in.reads {
		rd := &in.reads[i]
		key := uint64(0)
		if rd.keyIdx >= 0 {
			key = values[rd.keyIdx]
		}
		values[rd.field] = sw.state.Read(int(rd.slot), key, rd.agg, rd.window, now)
	}
	if len(in.reads) > 0 {
		sw.regReads.Add(uint64(len(in.reads)))
	}
	// Match-action stages. With telemetry on, the miss pattern is
	// accumulated in a register-resident mask and recorded with one
	// fused atomic add at the end of the packet — the same number of
	// atomics the uninstrumented path pays for its packet counter.
	state := in.prog.InitialState
	var mask uint64
	switch {
	case in.pat != nil:
		for i := range in.tables {
			if next, ok := in.tables[i].lookup(state, values[i]); ok {
				state = next
			} else {
				mask |= 1 << uint(i)
			}
		}
	case in.ctrs != nil:
		sw.packets.Add(1)
		for i := range in.tables {
			if next, ok := in.tables[i].lookup(state, values[i]); ok {
				state = next
			} else {
				in.ctrs[i].misses.Add(1)
			}
		}
	default:
		sw.packets.Add(1)
		for i := range in.tables {
			if next, ok := in.tables[i].lookup(state, values[i]); ok {
				state = next
			}
		}
	}
	// Leaf stage.
	ai, ok := in.leaf.lookup(state)
	if !ok {
		if in.pat != nil {
			in.pat[mask|in.dropBit].Add(1)
		}
		return Result{Dropped: true, Group: -1}
	}
	act := &in.prog.Actions[ai]
	// State updates execute in the action stage. Slots, key and argument
	// field indices were resolved at install time (installed.upds), so
	// the loop is array loads and the single-writer bank fold — no
	// name-map probe, no first-touch allocation, no lock.
	for i := range in.upds[ai] {
		u := &in.upds[ai][i]
		arg := uint64(0)
		if u.argIdx >= 0 {
			arg = values[u.argIdx]
		}
		key := uint64(0)
		if u.keyIdx >= 0 {
			key = values[u.keyIdx]
		}
		sw.state.Update(lane, int(u.slot), key, u.zeroArg, arg, u.window, now)
	}
	if len(act.Ports) == 0 {
		if in.pat != nil {
			in.pat[mask|in.dropBit].Add(1)
		}
		return Result{Dropped: true, Group: -1}
	}
	if in.pat != nil {
		in.pat[mask].Add(1)
	} else {
		sw.fwdFallback.Add(1) // nil-safe no-op when telemetry is off
	}
	return Result{Ports: act.Ports, Group: act.Group}
}

// Latency returns the fixed port-to-port latency of the pipeline. It does
// not depend on the installed rule count — the property that lets Camus
// filter at line rate.
func (sw *Switch) Latency() time.Duration { return sw.cfg.PipeLatency }

// Config returns the device configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// State exposes the keyed-state engine (observability, tests, and the
// embedder's EnsureLanes call at worker startup).
func (sw *Switch) State() *KeyedState { return sw.state }

// PacketsProcessed returns the number of packets run through the pipe.
func (sw *Switch) PacketsProcessed() uint64 {
	if sw.tel == nil {
		return sw.packets.Load()
	}
	sw.ctrMu.Lock()
	defer sw.ctrMu.Unlock()
	return sw.packetsTotalLocked()
}

// Program returns the installed program.
func (sw *Switch) Program() *compiler.Program { return sw.inst.Load().prog }

// Reinstall atomically replaces the installed program (the control plane's
// commit step). The new lookup structures are built off to the side and
// published with a single pointer store, so concurrent Process calls see
// either the old or the new program in full, never a mix. Register state is
// preserved across updates, as it would be on hardware where registers are
// not cleared by table writes.
func (sw *Switch) Reinstall(prog *compiler.Program) error {
	if err := CheckResources(prog, sw.cfg); err != nil {
		return err
	}
	// newInstalled resolves (and thereby pre-creates) every register the
	// program can touch, so they exist before any packet sees it.
	in := sw.newInstalled(prog)
	sw.inst.Store(in)
	sw.publishOccupancy(prog)
	return nil
}

// GroupPorts returns the port list of a multicast group.
func (sw *Switch) GroupPorts(g int) ([]int, error) {
	in := sw.inst.Load()
	if g < 0 || g >= len(in.groups) {
		return nil, fmt.Errorf("multicast group %d not installed", g)
	}
	return in.groups[g], nil
}
