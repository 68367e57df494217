package pipeline

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/telemetry"
)

// This file implements the sharded keyed-state engine behind the
// pipeline's register stage: state addressed by (variable, flow key) —
// src_count[source] — held in flat open-addressed banks of
// cacheline-sized cells, one bank per state variable per lane.
//
// Concurrency model (the single-writer discipline of the paper's
// register ALUs, mapped onto worker lanes): every lane owns one bank per
// variable, and only that lane's worker ever writes it — the packet path
// takes no lock. Cross-lane reads and telemetry scrapes snapshot cells
// through a per-cell seqlock (sequence counter, odd while a write is in
// flight) built entirely from atomics, so the engine is race-detector
// clean. Tumbling windows are epoch-aligned (windowStart = now − now mod
// window), which makes two things exactly equivalent: a cell whose
// window has elapsed and a cell that was evicted and re-inserted — so
// window-aware eviction of expired cells is semantically free.

// keyedProbeLimit bounds the linear-probe run of a bank. A probe that
// finds neither the key nor an empty cell within the run evicts: first
// choice is a cell whose window has already elapsed (its state reads as
// zero either way, so the eviction is invisible), else the cell with the
// oldest window start (lossy, counted in telemetry).
const keyedProbeLimit = 16

// defaultStateCapacity is the number of cells per lane per variable of a
// Switch's engine. Power of two; at the flatlookup load-factor
// discipline this comfortably holds a few hundred active flows per lane
// per window.
const defaultStateCapacity = 1024

// AggKind is the numeric form of an aggregate fold, resolved at install
// time so the packet path switches on a small integer instead of a
// string.
type AggKind uint8

// Aggregate folds. AggLast is the plain-register default ("unknown
// aggregates return the last written value").
const (
	AggLast AggKind = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

// AggKindOf maps an aggregate name to its numeric fold.
func AggKindOf(name string) AggKind {
	switch name {
	case "count":
		return AggCount
	case "sum":
		return AggSum
	case "min":
		return AggMin
	case "max":
		return AggMax
	case "avg":
		return AggAvg
	}
	return AggLast
}

// bankCell is one (variable, key) state cell: a seqlock-protected
// accumulator sized to a single cache line so a probe touches one line.
// All fields are atomics — the owner lane is the only writer, and
// cross-lane readers snapshot under the sequence counter, so the race
// detector sees only atomic accesses. seq == 0 doubles as the empty
// marker (a claimed cell's seq is always ≥ 2); odd values mean a write
// is in flight.
//
//camus:cacheline 64
type bankCell struct {
	seq   atomic.Uint32
	_     uint32 // pad seq to 8 bytes
	key   atomic.Uint64
	win   atomic.Int64 // window start, ns since the epoch (time.Duration)
	count atomic.Uint64
	sum   atomic.Uint64
	min   atomic.Uint64
	max   atomic.Uint64
	last  atomic.Uint64
}

// cellSnap is a consistent snapshot of one cell.
type cellSnap struct {
	key   uint64
	win   int64
	count uint64
	sum   uint64
	min   uint64
	max   uint64
	last  uint64
}

// snapshot reads the cell consistently. ok=false means the cell is
// empty (never claimed). A reader that races the (tiny) write critical
// section retries; after a burst of retries it yields, covering the
// pathological case of a writer preempted mid-write.
//
//camus:hotpath
func (c *bankCell) snapshot(s *cellSnap) bool {
	for spins := 0; ; spins++ {
		s1 := c.seq.Load()
		if s1 == 0 {
			return false
		}
		if s1&1 == 0 {
			s.key = c.key.Load()
			s.win = c.win.Load()
			s.count = c.count.Load()
			s.sum = c.sum.Load()
			s.min = c.min.Load()
			s.max = c.max.Load()
			s.last = c.last.Load()
			if c.seq.Load() == s1 {
				return true
			}
		}
		if spins%128 == 127 {
			runtime.Gosched()
		}
	}
}

// bank is one variable's flat open-addressed cell array on one lane.
// Power-of-two sized, linear probing, following the flatlookup.go
// discipline.
type bank struct {
	cells []bankCell
	mask  uint64
}

// mixKey is the splitmix64 finalizer (same constants as flatlookup's
// oaHash), spreading flow keys across the bank.
//
//camus:hotpath
func mixKey(key uint64) uint64 {
	h := key + 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// epochStart returns the tumbling window containing now. Windows are
// epoch-aligned so every lane and every reader derives the same boundary
// from the same clock, with no per-cell first-touch phase.
func epochStart(now, window time.Duration) int64 {
	if window <= 0 {
		return 0
	}
	return int64(now - now%window)
}

// laneStats is one lane's owner-written update/eviction accounting,
// scraped lock-free by telemetry.
type laneStats struct {
	updates      atomic.Uint64
	evictExpired atomic.Uint64
	evictLossy   atomic.Uint64
	cells        atomic.Uint64 // claimed cells across the lane's banks
}

// laneState is one single-writer lane: one bank per variable slot plus
// the lane's stats. The banks slice is republished through the atomic
// pointer when a Reinstall adds variables, so cross-lane readers never
// observe a half-grown slice header.
type laneState struct {
	banks atomic.Pointer[[]bank]
	stats laneStats
}

// varMeta is the install-time identity of one state variable slot.
type varMeta struct {
	name   string // bank identity: variable name plus "[key]" when keyed
	window time.Duration
}

// KeyedState is the switch's sharded keyed-state engine. Variables get a
// stable slot on first Ensure (surviving Reinstall, like hardware
// registers surviving table writes); lanes grow on demand to match the
// embedder's worker count.
type KeyedState struct {
	capacity int

	mu     sync.Mutex // installs and lane growth
	byName map[string]int
	vars   []varMeta
	lanes  atomic.Pointer[[]*laneState]

	tel *telemetry.Registry
}

// NewKeyedState builds an engine with the given cells-per-bank capacity
// (rounded up to a power of two), starting with one lane.
func NewKeyedState(capacity int, tel *telemetry.Registry) *KeyedState {
	cap2 := 1
	for cap2 < capacity {
		cap2 <<= 1
	}
	e := &KeyedState{capacity: cap2, byName: make(map[string]int), tel: tel}
	lanes := []*laneState{e.newLane(0)}
	e.lanes.Store(&lanes)
	return e
}

// newLane allocates a lane with banks for every known variable and
// registers its telemetry series. Callers hold e.mu (or are the
// constructor).
func (e *KeyedState) newLane(id int) *laneState {
	ls := &laneState{}
	banks := make([]bank, len(e.vars))
	for i := range banks {
		banks[i] = e.newBank()
	}
	ls.banks.Store(&banks)
	if e.tel != nil {
		lane := telemetry.L("lane", itoa(id))
		e.tel.CounterFunc("camus_pipeline_register_updates_total", func() float64 {
			return float64(ls.stats.updates.Load())
		}, lane)
		e.tel.CounterFunc("camus_pipeline_register_evictions_total", func() float64 {
			return float64(ls.stats.evictExpired.Load())
		}, lane, telemetry.L("kind", "expired"))
		e.tel.CounterFunc("camus_pipeline_register_evictions_total", func() float64 {
			return float64(ls.stats.evictLossy.Load())
		}, lane, telemetry.L("kind", "lossy"))
		e.tel.GaugeFunc("camus_pipeline_register_cells", func() float64 {
			return float64(ls.stats.cells.Load())
		}, lane)
	}
	return ls
}

func (e *KeyedState) newBank() bank {
	return bank{cells: make([]bankCell, e.capacity), mask: uint64(e.capacity - 1)}
}

// itoa is a tiny allocation-free-enough int formatter for lane labels
// (lane creation is cold).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// Lanes returns the current lane count.
func (e *KeyedState) Lanes() int { return len(*e.lanes.Load()) }

// EnsureLanes grows the engine to at least n single-writer lanes. The
// embedder must call it (once, at worker startup) before issuing
// ProcessBatchOn for a lane index — the engine also self-heals on a
// too-large lane index, but only growth through here is race-free
// against in-flight packets, because the lane slice is copied and
// republished whole.
func (e *KeyedState) EnsureLanes(n int) {
	if n <= e.Lanes() {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.lanes.Load()
	if n <= len(old) {
		return
	}
	lanes := append(append([]*laneState(nil), old...), nil)[:len(old)]
	for id := len(old); id < n; id++ {
		lanes = append(lanes, e.newLane(id))
	}
	e.lanes.Store(&lanes)
}

// EnsureVar returns the stable slot of a state variable, allocating a
// bank on every lane on first use. Identity is the variable name plus
// its "[key-field]" suffix; the first caller's window wins (reads are
// resolved before updates at install time, so a declared window takes
// precedence over the aggregate default).
func (e *KeyedState) EnsureVar(name string, window time.Duration) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if slot, ok := e.byName[name]; ok {
		return slot
	}
	slot := len(e.vars)
	e.byName[name] = slot
	e.vars = append(e.vars, varMeta{name: name, window: window})
	for _, ls := range *e.lanes.Load() {
		old := *ls.banks.Load()
		banks := append(append([]bank(nil), old...), e.newBank())
		ls.banks.Store(&banks)
	}
	return slot
}

// Vars returns the allocated variable identities, sorted. The name list
// is snapshotted under the lock and sorted outside it.
func (e *KeyedState) Vars() []string {
	e.mu.Lock()
	out := make([]string, len(e.vars))
	for i, v := range e.vars {
		out[i] = v.name
	}
	e.mu.Unlock()
	sort.Strings(out)
	return out
}

// Window returns the tumbling window of a variable identity (0 if
// unknown or windowless).
func (e *KeyedState) Window(name string) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if slot, ok := e.byName[name]; ok {
		return e.vars[slot].window
	}
	return 0
}

// Update folds one sample into (slot, key) on the caller's lane — the
// single-writer fast path: a linear probe over cacheline cells and a
// seqlock-bracketed store burst, no lock taken. zeroArg is the count()
// fold, which ignores the argument value.
//
//camus:hotpath bench=BenchmarkProcessBatchKeyed
func (e *KeyedState) Update(lane, slot int, key uint64, zeroArg bool, arg uint64, window, now time.Duration) {
	lanes := *e.lanes.Load()
	if lane >= len(lanes) {
		// Misuse guard (EnsureLanes not called): grow, then retry.
		//camus:alloc-ok cold self-heal, runs once per missing lane, never in steady state
		e.EnsureLanes(lane + 1)
		lanes = *e.lanes.Load()
	}
	e.updateLane(lanes[lane], slot, key, zeroArg, arg, window, now)
}

// updateLane performs the probe-and-fold on one lane's bank. The caller
// is the lane's single writer.
//
//camus:hotpath
func (e *KeyedState) updateLane(ls *laneState, slot int, key uint64, zeroArg bool, arg uint64, window, now time.Duration) {
	b := &(*ls.banks.Load())[slot]
	cur := epochStart(now, window)
	h := mixKey(key)
	var cell *bankCell
	var victim *bankCell
	victimWin := int64(0)
	victimExpired := false
	claimed := false
	for i := uint64(0); i < keyedProbeLimit; i++ {
		c := &b.cells[(h+i)&b.mask]
		seq := c.seq.Load()
		if seq == 0 {
			cell = c
			claimed = true
			break
		}
		if c.key.Load() == key {
			cell = c
			break
		}
		// Victim candidates for a full run: an expired-window cell is a
		// free eviction (its state reads zero either way); otherwise the
		// oldest window start loses.
		w := c.win.Load()
		expired := window > 0 && w != cur
		switch {
		case victim == nil,
			expired && !victimExpired,
			expired == victimExpired && w < victimWin:
			victim, victimWin, victimExpired = c, w, expired
		}
	}
	if cell == nil {
		cell = victim
		if victimExpired {
			ls.stats.evictExpired.Add(1)
		} else {
			ls.stats.evictLossy.Add(1)
		}
	}
	v := arg
	if zeroArg {
		v = 0
	}
	cell.seq.Add(1) // odd: write in flight
	if claimed || cell.key.Load() != key || cell.win.Load() != cur {
		// Fresh claim, eviction, or window roll: reset the accumulators.
		cell.key.Store(key)
		cell.win.Store(cur)
		cell.count.Store(0)
		cell.sum.Store(0)
		cell.min.Store(0)
		cell.max.Store(0)
		cell.last.Store(0)
	}
	if cnt := cell.count.Load(); cnt == 0 {
		cell.min.Store(v)
		cell.max.Store(v)
	} else {
		if v < cell.min.Load() {
			cell.min.Store(v)
		}
		if v > cell.max.Load() {
			cell.max.Store(v)
		}
	}
	cell.count.Add(1)
	cell.sum.Add(v)
	cell.last.Store(v)
	cell.seq.Add(1) // even: published
	if claimed {
		ls.stats.cells.Add(1)
	}
	ls.stats.updates.Add(1)
}

// Read serves the aggregate of (slot, key) for the current window. The
// read is non-mutating everywhere — window expiry is decided by
// comparing a cell's window start against the reader's epoch, never by
// rewriting the cell — so telemetry scrapes and admin snapshots reuse
// this path without advancing state. The read combines the key's cells
// across every lane: counts and sums add, min/max fold, avg divides the
// totals, last takes the newest window (highest lane on a tie).
//
//camus:hotpath bench=BenchmarkProcessBatchKeyed
func (e *KeyedState) Read(slot int, key uint64, agg AggKind, window, now time.Duration) uint64 {
	cur := epochStart(now, window)
	var snap cellSnap
	var count, sum, min, max, last uint64
	lastWin := int64(0)
	seen := false
	for _, ls := range *e.lanes.Load() {
		if !probeLane(ls, slot, key, &snap) {
			continue
		}
		if window > 0 && snap.win != cur {
			continue // expired (or future) window: contributes nothing
		}
		count += snap.count
		sum += snap.sum
		if !seen || snap.min < min {
			min = snap.min
		}
		if !seen || snap.max > max {
			max = snap.max
		}
		if !seen || snap.win >= lastWin {
			last, lastWin = snap.last, snap.win
		}
		seen = true
	}
	return foldAgg(agg, count, sum, min, max, last)
}

// probeLane finds the key's cell in one lane's bank and snapshots it.
//
//camus:hotpath
func probeLane(ls *laneState, slot int, key uint64, snap *cellSnap) bool {
	b := &(*ls.banks.Load())[slot]
	h := mixKey(key)
	for i := uint64(0); i < keyedProbeLimit; i++ {
		c := &b.cells[(h+i)&b.mask]
		if !c.snapshot(snap) {
			return false // empty cell terminates the probe run
		}
		if snap.key == key {
			return true
		}
	}
	return false
}

// foldAgg serves one aggregate from combined accumulators.
//
//camus:hotpath
func foldAgg(agg AggKind, count, sum, min, max, last uint64) uint64 {
	switch agg {
	case AggCount:
		return count
	case AggSum:
		return sum
	case AggMin:
		return min
	case AggMax:
		return max
	case AggAvg:
		if count == 0 {
			return 0
		}
		return sum / count
	}
	return last
}

// KeyedValue is one key's combined state in a Snapshot.
type KeyedValue struct {
	Key   uint64
	Value uint64
}

// Snapshot returns the per-key aggregate values of a variable identity
// across all lanes for the window containing now, sorted by key,
// truncated to max entries when max > 0. Like Read it never mutates
// state — this is the observability surface (admin scrapes, tests).
func (e *KeyedState) Snapshot(name, agg string, now time.Duration, max int) []KeyedValue {
	e.mu.Lock()
	slot, ok := e.byName[name]
	var window time.Duration
	if ok {
		window = e.vars[slot].window
	}
	e.mu.Unlock()
	if !ok {
		return nil
	}
	kind := AggKindOf(agg)
	cur := epochStart(now, window)
	keys := make(map[uint64]struct{})
	var snap cellSnap
	lanes := *e.lanes.Load()
	for _, ls := range lanes {
		b := &(*ls.banks.Load())[slot]
		for i := range b.cells {
			if !b.cells[i].snapshot(&snap) {
				continue
			}
			if window > 0 && snap.win != cur {
				continue
			}
			keys[snap.key] = struct{}{}
		}
	}
	out := make([]KeyedValue, 0, len(keys))
	for k := range keys {
		out = append(out, KeyedValue{Key: k})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	for i := range out {
		out[i].Value = e.Read(slot, out[i].Key, kind, window, now)
	}
	return out
}

// KeyedCell is one key's full accumulator state in a SnapshotCells
// dump, lane-combined like the packet path's reads.
type KeyedCell struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	Last  uint64 `json:"last"`
}

// SnapshotCells is Snapshot with every aggregate materialized per key —
// the admin endpoint's document. Non-mutating like Snapshot.
func (e *KeyedState) SnapshotCells(name string, now time.Duration, max int) []KeyedCell {
	keys := e.Snapshot(name, "count", now, max)
	if keys == nil {
		return nil
	}
	e.mu.Lock()
	slot := e.byName[name]
	window := e.vars[slot].window
	e.mu.Unlock()
	out := make([]KeyedCell, len(keys))
	for i, kv := range keys {
		out[i] = KeyedCell{
			Key:   kv.Key,
			Count: kv.Value,
			Sum:   e.Read(slot, kv.Key, AggSum, window, now),
			Min:   e.Read(slot, kv.Key, AggMin, window, now),
			Max:   e.Read(slot, kv.Key, AggMax, window, now),
			Last:  e.Read(slot, kv.Key, AggLast, window, now),
		}
	}
	return out
}

// VarDump is one state variable's scrape document.
type VarDump struct {
	Name     string      `json:"name"`
	WindowUS int64       `json:"window_us"`
	Cells    []KeyedCell `json:"cells"`
}

// RegisterDump is the JSON document behind the /debug/registers admin
// route: engine accounting plus a bounded per-variable cell dump for the
// window containing now. Building it never takes the packet path's
// write side — every cell is read through the seqlock.
type RegisterDump struct {
	Stats Stats     `json:"stats"`
	Vars  []VarDump `json:"vars"`
}

// DebugDump walks Vars() and snapshots each one, at most maxPerVar cells
// per variable (0 = unbounded).
func (e *KeyedState) DebugDump(now time.Duration, maxPerVar int) RegisterDump {
	d := RegisterDump{Stats: e.Stats()}
	for _, name := range e.Vars() {
		d.Vars = append(d.Vars, VarDump{
			Name:     name,
			WindowUS: e.Window(name).Microseconds(),
			Cells:    e.SnapshotCells(name, now, maxPerVar),
		})
	}
	return d
}

// Stats is the engine's aggregate accounting across lanes.
type Stats struct {
	Lanes        int
	Updates      uint64
	EvictExpired uint64
	EvictLossy   uint64
	Cells        uint64
}

// Stats sums the per-lane counters (telemetry exports them per lane).
func (e *KeyedState) Stats() Stats {
	lanes := *e.lanes.Load()
	s := Stats{Lanes: len(lanes)}
	for _, ls := range lanes {
		s.Updates += ls.stats.updates.Load()
		s.EvictExpired += ls.stats.evictExpired.Load()
		s.EvictLossy += ls.stats.evictLossy.Load()
		s.Cells += ls.stats.cells.Load()
	}
	return s
}
