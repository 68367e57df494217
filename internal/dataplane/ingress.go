package dataplane

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/itch"
	"camus/internal/telemetry"
)

// IngressMode selects how ingress datagrams reach the processing lanes.
//
// The paper's ASIC ingests at line rate because every port has its own
// ingress pipeline; the software switch mirrors that with per-lane
// SO_REUSEPORT sockets, so the measured (not derived) throughput scales
// with lanes instead of serializing behind one reader goroutine.
type IngressMode int

const (
	// IngressAuto resolves to IngressShared — the portable, compatible
	// default: one ingress socket drained by one reader.
	IngressAuto IngressMode = iota

	// IngressShared is the classic path: a single ingress socket; with
	// Config.Workers > 1 one reader goroutine fans datagrams out to the
	// shard lanes keyed by the first add-order's stock locate.
	IngressShared

	// IngressReusePort gives every lane its own SO_REUSEPORT socket and
	// read loop; each lane processes exactly what the kernel's flow hash
	// delivers to its socket, with no software shard step at all. The
	// shard key is therefore the publisher's flow: per-instrument
	// ordering is preserved when the publisher keeps each instrument on
	// one flow (fanning out across source ports per instrument), which
	// is the natural way to feed a multi-lane switch. Linux only; other
	// platforms fall back to IngressShared.
	IngressReusePort

	// IngressReusePortReshard also gives every lane its own SO_REUSEPORT
	// socket, but adds a software re-shard hop: each reader keys every
	// datagram by its first add-order's stock locate and hands datagrams
	// owned by another lane over a FIFO channel to that lane's
	// processor. This is the correctness fallback for feeds the kernel
	// cannot spread meaningfully (a single-flow publisher lands entirely
	// on one socket): reads stay on one lane, but processing still
	// parallelizes across all lanes and per-instrument ordering is
	// preserved for any feed. Linux only; other platforms fall back to
	// IngressShared.
	IngressReusePortReshard
)

// reuseportAvailable gates the SO_REUSEPORT ingress modes; it is a
// variable (initialized from the build-tagged reuseportOS constant) so
// tests can force the non-Linux fallback path on any platform.
var reuseportAvailable = reuseportOS

// ParseIngressMode parses the flag spelling of an ingress mode:
// "auto", "shared", "reuseport", or "reshard".
func ParseIngressMode(s string) (IngressMode, error) {
	switch s {
	case "", "auto":
		return IngressAuto, nil
	case "shared":
		return IngressShared, nil
	case "reuseport":
		return IngressReusePort, nil
	case "reshard", "reuseport-reshard":
		return IngressReusePortReshard, nil
	}
	return IngressAuto, fmt.Errorf("dataplane: unknown ingress mode %q (want auto, shared, reuseport, reshard)", s)
}

func (m IngressMode) String() string {
	switch m {
	case IngressShared:
		return "shared"
	case IngressReusePort:
		return "reuseport"
	case IngressReusePortReshard:
		return "reshard"
	}
	return "auto"
}

// ReusePortAvailable reports whether this build and platform can bind
// SO_REUSEPORT lane sockets (false forces the shared-socket fallback).
func ReusePortAvailable() bool { return reuseportAvailable }

// resolveIngressMode maps a configured mode to the one a switch will
// actually run: Auto means Shared, and the reuseport modes degrade to
// Shared where SO_REUSEPORT is unavailable (non-Linux builds).
func resolveIngressMode(m IngressMode) IngressMode {
	if m == IngressAuto {
		return IngressShared
	}
	if m != IngressShared && !reuseportAvailable {
		return IngressShared
	}
	return m
}

// lane is one ingress/processing path of the switch. In the reuseport
// modes it owns a socket bound to the shared ingress address; in shared
// mode every lane's conn aliases the one ingress socket (used for
// egress writes). Busy-time counters are split so throughput experiments
// can attribute cost per stage per lane, and the counters are registered
// per lane (label lane="N") when telemetry is attached.
type lane struct {
	id   int
	conn Conn
	ch   chan *dgram // processor inbox; nil when the lane processes inline
	st   *procState

	busyRead     atomic.Int64 // ns inside socket read calls on this lane
	busyDispatch atomic.Int64 // ns computing shard keys + enqueueing handoffs
	busyStall    atomic.Int64 // ns blocked on a full lane inbox (backpressure)
	busyProc     atomic.Int64 // ns evaluating and forwarding datagrams

	datagrams   telemetry.Counter // ingress datagrams that arrived on this lane
	resharedIn  telemetry.Counter // datagrams received over the re-shard hop
	resharedOut telemetry.Counter // datagrams read here but owned by another lane
}

// register adopts the lane's counters into reg as per-lane series.
func (l *lane) register(reg *telemetry.Registry) {
	lb := telemetry.L("lane", strconv.Itoa(l.id))
	reg.RegisterCounter("camus_dataplane_ingress_datagrams_total", &l.datagrams, lb)
	reg.RegisterCounter("camus_dataplane_ingress_resharded_in_total", &l.resharedIn, lb)
	reg.RegisterCounter("camus_dataplane_ingress_resharded_out_total", &l.resharedOut, lb)
	reg.CounterFunc("camus_dataplane_ingress_read_seconds_total", func() float64 {
		return float64(l.busyRead.Load()+l.busyDispatch.Load()) / 1e9
	}, lb)
	reg.CounterFunc("camus_dataplane_ingress_proc_seconds_total", func() float64 {
		return float64(l.busyProc.Load()) / 1e9
	}, lb)
}

// LaneStat is one lane's ingress accounting, for throughput experiments
// and operational introspection. Nanosecond fields are cumulative busy
// time; on a saturated replay they decompose the lane's wall clock into
// stages (read, shard+handoff, backpressure stall, processing).
type LaneStat struct {
	Lane        int
	Datagrams   uint64 // ingress datagrams that arrived on this lane
	ResharedIn  uint64 // datagrams received from other lanes' readers
	ResharedOut uint64 // datagrams this lane's reader handed elsewhere
	ReadNs      int64  // socket read busy time
	DispatchNs  int64  // shard key + enqueue busy time (stalls excluded)
	StallNs     int64  // time blocked on full lane inboxes
	ProcNs      int64  // processing busy time
}

// LaneStats snapshots every lane's counters. In shared mode the reader
// goroutine's read/dispatch/stall time is reported on the Switch level
// (BusyNs), not on any lane.
func (sw *Switch) LaneStats() []LaneStat {
	out := make([]LaneStat, len(sw.lanes))
	for i, l := range sw.lanes {
		out[i] = LaneStat{
			Lane:        l.id,
			Datagrams:   l.datagrams.Load(),
			ResharedIn:  l.resharedIn.Load(),
			ResharedOut: l.resharedOut.Load(),
			ReadNs:      l.busyRead.Load(),
			DispatchNs:  l.busyDispatch.Load(),
			StallNs:     l.busyStall.Load(),
			ProcNs:      l.busyProc.Load(),
		}
	}
	return out
}

// IngressMode reports the mode the switch actually runs (after the
// Auto resolution and any platform fallback).
func (sw *Switch) IngressMode() IngressMode { return sw.mode }

// dgramPool is a bounded free list of ingress buffers. Unlike sync.Pool
// it is immune to GC clearing — once the in-flight working set is
// allocated, the steady state recycles the same buffers forever, which
// is what keeps multi-worker allocs/op at ~0 over long runs. Capacity is
// sized to the maximum number of datagrams in flight (every lane inbox
// full plus every reader's batch), so put never drops and the misses add up
// to the working set, at most the capacity.
type dgramPool struct {
	free chan *dgram
	size int
	miss *telemetry.Counter // camus_dataplane_pool_miss_total
}

func newDgramPool(capacity, bufSize int, miss *telemetry.Counter) *dgramPool {
	return &dgramPool{free: make(chan *dgram, capacity), size: bufSize, miss: miss}
}

//camus:hotpath
func (p *dgramPool) get() *dgram {
	select {
	case d := <-p.free:
		return d
	default:
		p.miss.Add(1)
		//camus:alloc-ok pool miss grows the working set once; the steady state recycles
		return &dgram{buf: make([]byte, p.size)}
	}
}

//camus:hotpath
func (p *dgramPool) put(d *dgram) {
	select {
	case p.free <- d:
	default:
	}
}

// poolCapacity is the maximum number of pooled datagrams in flight for
// the sharded paths: every lane inbox full, plus one read batch per
// reader, plus one datagram in each processor's hands.
func (sw *Switch) poolCapacity() int {
	return sw.workers*shardQueueDepth + sw.workers*sw.batch + sw.workers
}

// runLaneInline reads the lane's socket and processes every datagram in
// place — the per-lane mirror of the classic single-reader loop. It is
// the whole ingress path in IngressReusePort mode (the kernel's flow
// hash is the shard step) and the workers=1 shared loop.
func (sw *Switch) runLaneInline(ctx context.Context, l *lane) error {
	if br := newBatchReader(l.conn, sw.batch); br != nil {
		bufs := make([][]byte, sw.batch)
		sizes := make([]int, sw.batch)
		for i := range bufs {
			bufs[i] = make([]byte, sw.readBuf)
		}
		for {
			rs := time.Now()
			n, err := br.ReadBatch(bufs, sizes)
			l.busyRead.Add(int64(time.Since(rs)))
			for i := 0; i < n; i++ {
				sw.stats.Datagrams.Add(1)
				l.datagrams.Add(1)
				sw.timeProcess(l, bufs[i][:sizes[i]])
			}
			if err != nil {
				return sw.readErr(ctx, err)
			}
		}
	}
	buf := make([]byte, sw.readBuf)
	for {
		rs := time.Now()
		n, _, err := l.conn.ReadFromUDP(buf)
		l.busyRead.Add(int64(time.Since(rs)))
		if err != nil {
			return sw.readErr(ctx, err)
		}
		sw.stats.Datagrams.Add(1)
		l.datagrams.Add(1)
		sw.timeProcess(l, buf[:n])
	}
}

// handoff enqueues a pooled datagram into owner's inbox, attributing the
// uncontended enqueue to dispatch time and any blocking on a full inbox
// to stall time (backpressure from a saturated lane is not reader work).
//
//camus:hotpath
func handoff(owner *lane, d *dgram, start time.Time, dispatch, stall *atomic.Int64) {
	select {
	case owner.ch <- d:
		dispatch.Add(int64(time.Since(start)))
	default:
		mid := time.Now()
		dispatch.Add(int64(mid.Sub(start)))
		owner.ch <- d
		stall.Add(int64(time.Since(mid)))
	}
}

// runLaneReader is one reuseport-reshard reader: it drains the lane's
// own socket and re-shards every datagram by stock locate, handing each
// to its owning lane's processor. All datagrams of one flow are read
// here in kernel arrival order and channel sends from one goroutine are
// FIFO, so per-instrument order survives the hop for any feed in which
// an instrument rides a single flow — including the degenerate
// single-flow feed, where this lane reads everything.
func (sw *Switch) runLaneReader(ctx context.Context, l *lane, pool *dgramPool) error {
	dispatch := func(d *dgram) {
		ds := time.Now()
		sw.stats.Datagrams.Add(1)
		l.datagrams.Add(1)
		owner := l
		if loc, ok := itch.FirstAddOrderLocate(d.buf[:d.n]); ok {
			owner = sw.lanes[int(loc)%len(sw.lanes)]
		}
		if owner != l {
			l.resharedOut.Add(1)
			sw.stats.Resharded.Add(1)
		}
		d.src = int32(l.id)
		handoff(owner, d, ds, &l.busyDispatch, &l.busyStall)
	}
	if br := newBatchReader(l.conn, sw.batch); br != nil {
		ds := make([]*dgram, sw.batch)
		bufs := make([][]byte, sw.batch)
		sizes := make([]int, sw.batch)
		for {
			for i := range ds {
				ds[i] = pool.get()
				bufs[i] = ds[i].buf
			}
			rs := time.Now()
			n, rerr := br.ReadBatch(bufs, sizes)
			l.busyRead.Add(int64(time.Since(rs)))
			for i := 0; i < n; i++ {
				ds[i].n = sizes[i]
				dispatch(ds[i])
			}
			for i := n; i < len(ds); i++ {
				pool.put(ds[i])
			}
			if rerr != nil {
				return sw.readErr(ctx, rerr)
			}
		}
	}
	for {
		d := pool.get()
		rs := time.Now()
		var rerr error
		d.n, _, rerr = l.conn.ReadFromUDP(d.buf)
		l.busyRead.Add(int64(time.Since(rs)))
		if rerr != nil {
			pool.put(d)
			return sw.readErr(ctx, rerr)
		}
		dispatch(d)
	}
}

// runReusePort runs the per-lane ingress paths: every lane owns its own
// SO_REUSEPORT socket. Without reshard each lane reads and processes
// inline (kernel flow hash = shard); with reshard each lane runs a
// reader plus a processor, connected lane-to-lane by FIFO inboxes keyed
// on stock locate. Returns the first terminal read error.
func (sw *Switch) runReusePort(ctx context.Context, reshard bool) error {
	var errMu sync.Mutex
	var firstErr error
	record := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	if !reshard {
		var wg sync.WaitGroup
		for _, l := range sw.lanes {
			wg.Add(1)
			go func(l *lane) {
				defer wg.Done()
				// An inline lane has no inbox to drain, but a panic must
				// still surface through Run (and stop the other lanes)
				// rather than kill the process.
				defer func() {
					if r := recover(); r != nil {
						record(fmt.Errorf("dataplane: lane %d processor failed: %v", l.id, r))
						sw.closeConns()
					}
				}()
				record(sw.runLaneInline(ctx, l))
			}(l)
		}
		wg.Wait()
		return firstErr
	}

	pool := newDgramPool(sw.poolCapacity(), sw.readBuf, &sw.stats.PoolMiss)
	for _, l := range sw.lanes {
		l.ch = make(chan *dgram, shardQueueDepth)
	}
	var procWG sync.WaitGroup
	for _, l := range sw.lanes {
		procWG.Add(1)
		go func(l *lane) {
			defer procWG.Done()
			defer sw.recoverLane(l, record, pool)
			for d := range l.ch {
				if int(d.src) != l.id {
					l.resharedIn.Add(1)
				}
				sw.timeProcess(l, d.buf[:d.n])
				pool.put(d)
			}
		}(l)
	}
	var readWG sync.WaitGroup
	for _, l := range sw.lanes {
		readWG.Add(1)
		go func(l *lane) {
			defer readWG.Done()
			record(sw.runLaneReader(ctx, l, pool))
		}(l)
	}
	// Inboxes close only after every reader has exited (any reader may
	// still be handing off to any lane until then); processors drain the
	// residue and stop.
	readWG.Wait()
	for _, l := range sw.lanes {
		close(l.ch)
	}
	procWG.Wait()
	return firstErr
}
