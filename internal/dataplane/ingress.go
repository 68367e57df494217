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

// IngressMode selects the ingress topology. Every mode runs the same
// reader→lane loop (runIngress); a mode only fixes two facts about it —
// how many sockets are read, and which lane owns a datagram:
//
//	mode       sockets   owner of a datagram      processed by
//	shared     1         locate % workers         the owner's processor
//	reuseport  workers   the lane that read it    that lane's reader, inline
//	reshard    workers   locate % workers         the owner's processor
//
// At Workers = 1 every row is the same thing: one socket whose reader
// processes inline. The paper's ASIC ingests at line rate because every
// port has its own ingress pipeline; the per-lane SO_REUSEPORT sockets are
// the software mirror of that, so measured throughput can scale with lanes
// instead of serializing behind one reader goroutine.
type IngressMode int

const (
	// IngressShared is the portable default (the flag spelling "auto"
	// means it too).
	IngressShared IngressMode = iota

	// IngressReusePort has no software shard step: the shard key is the
	// publisher's flow, so per-instrument ordering is preserved when the
	// publisher keeps each instrument on one flow (fanning out across
	// source ports per instrument), which is the natural way to feed a
	// multi-lane switch. Linux only; other platforms fall back to
	// IngressShared.
	IngressReusePort

	// IngressReusePortReshard is the correctness fallback for feeds the
	// kernel cannot spread meaningfully (a single-flow publisher lands
	// entirely on one socket): reads stay on one lane, but processing
	// still parallelizes across all lanes and per-instrument ordering is
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
	case "", "auto", "shared":
		return IngressShared, nil
	case "reuseport":
		return IngressReusePort, nil
	case "reshard", "reuseport-reshard":
		return IngressReusePortReshard, nil
	}
	return IngressShared, fmt.Errorf("dataplane: unknown ingress mode %q (want auto, shared, reuseport, reshard)", s)
}

func (m IngressMode) String() string {
	switch m {
	case IngressReusePort:
		return "reuseport"
	case IngressReusePortReshard:
		return "reshard"
	}
	return "shared"
}

// ReusePortAvailable reports whether this build and platform can bind
// SO_REUSEPORT lane sockets (false forces the shared-socket fallback).
func ReusePortAvailable() bool { return reuseportAvailable }

// resolveIngressMode maps a configured mode to the one a switch will
// actually run: the reuseport modes degrade to Shared where SO_REUSEPORT
// is unavailable (non-Linux builds).
func resolveIngressMode(m IngressMode) IngressMode {
	if !reuseportAvailable {
		return IngressShared
	}
	return m
}

// lane is one ingress/processing path of the switch. In the reuseport
// modes it owns a socket bound to the shared ingress address; in shared
// mode every lane's conn aliases the one ingress socket, which lane 0
// reads and every lane writes egress to. Busy-time counters are split so
// throughput experiments can attribute cost per stage per lane — the
// read, dispatch and stall clocks belong to the lane whose socket the
// reader drains — and the counters are registered per lane (label
// lane="N") when telemetry is attached.
type lane struct {
	id   int
	conn Conn
	ch   chan *dgram // processor inbox; nil when the lane processes inline
	st   *procState

	busyRead     atomic.Int64 // ns inside socket read calls on this lane
	busyDispatch atomic.Int64 // ns computing shard keys + enqueueing handoffs
	busyStall    atomic.Int64 // ns blocked on a full lane inbox (backpressure)
	busyProc     atomic.Int64 // ns evaluating and forwarding datagrams

	datagrams   telemetry.Counter // ingress datagrams that arrived on this lane (shared socket: that it owns)
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

// LaneStats snapshots every lane's counters. The read, dispatch and stall
// clocks are those of the lane's own reader, so in shared mode they are all
// on lane 0; summed over lanes they are BusyNs.
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

// IngressMode reports the mode the switch actually runs (after any
// platform fallback).
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

// poolCapacity is the maximum number of pooled datagrams in flight when
// lanes have inboxes: every inbox full, plus one read batch per reader,
// plus one datagram in each processor's hands.
func (sw *Switch) poolCapacity() int {
	return len(sw.lanes) * (shardQueueDepth + sw.batch + 1)
}

// dgram is one ingress datagram buffer: a slot of a reader's batch, or in
// flight between a reader and the lane that owns it. src is the lane it
// arrived on (for re-shard accounting).
type dgram struct {
	buf []byte
	n   int
	src int32
}

// sharded reports who owns a datagram: the lane its first add-order's
// stock locate selects (every lane then has an inbox and a processor), or
// — reuseport mode, and any mode at one worker — the lane whose socket it
// arrived on, which processes it inline.
func (sw *Switch) sharded() bool { return sw.mode != IngressReusePort && len(sw.lanes) > 1 }

// runIngress is the ingress engine of every topology: one reader per
// ingress socket, plus one processor per lane that has an inbox. It
// returns the first terminal failure — a read error on any socket or a
// panic on any goroutine that processes — and any such failure closes
// every socket, so no reader goes on feeding a switch that is going down
// and the kernel is not left hashing flows onto a socket nobody reads.
//
// Ordering: a reader sees its socket's datagrams in kernel arrival order
// and sends to an inbox from one goroutine, which is FIFO, so an
// instrument's messages stay ordered wherever the instrument rides a
// single flow. Deadlock freedom: readers block only on inboxes, processors
// only drain theirs (a dead one keeps draining, see recoverLane), and
// inboxes close only after every reader has exited — any reader may be
// handing off to any lane until then (DESIGN.md §5g).
func (sw *Switch) runIngress(ctx context.Context) error {
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		if err == nil {
			return
		}
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		sw.closeConns()
	}

	var pool *dgramPool
	var readers, procs sync.WaitGroup
	if sw.sharded() {
		pool = newDgramPool(sw.poolCapacity(), readBufSize, &sw.stats.PoolMiss)
		for _, l := range sw.lanes {
			l.ch = make(chan *dgram, shardQueueDepth)
			procs.Add(1)
			go func(l *lane) {
				defer procs.Done()
				defer sw.recoverLane(l, l.ch, fail)
				for d := range l.ch {
					if int(d.src) != l.id {
						l.resharedIn.Add(1)
					}
					sw.timeProcess(l, d.buf[:d.n])
					pool.put(d)
				}
			}(l)
		}
	}
	for _, l := range sw.lanes[:len(sw.conns)] {
		readers.Add(1)
		go func(l *lane) {
			defer readers.Done()
			defer sw.recoverLane(l, nil, fail)
			fail(sw.readLane(ctx, l, pool))
		}(l)
	}
	readers.Wait()
	for _, l := range sw.lanes {
		if l.ch != nil {
			close(l.ch)
		}
	}
	procs.Wait()
	return firstErr
}

// recoverLane is deferred on every goroutine that may process a datagram
// and converts a panic into Run's error. A processor that dies keeps
// draining (and discarding) its inbox until it is closed — otherwise
// readers would block forever handing off to an inbox nobody drains. An
// inline reader has no inbox, and ranging over a nil channel never ends.
func (sw *Switch) recoverLane(l *lane, inbox chan *dgram, fail func(error)) {
	r := recover()
	if r == nil {
		return
	}
	fail(fmt.Errorf("dataplane: lane %d processor failed: %v", l.id, r))
	if inbox != nil {
		for range inbox {
		}
	}
}

// readLane drains l's socket until a terminal read error, which it maps to
// Run's return value. The reader owns one buffer per slot of its batch; a
// slot it hands off is refilled from the pool, so an inline lane never
// touches the pool at all.
func (sw *Switch) readLane(ctx context.Context, l *lane, pool *dgramPool) error {
	br, width := newBatchReader(l.conn, sw.batch)
	ds := make([]*dgram, width)
	bufs := make([][]byte, len(ds))
	sizes := make([]int, len(ds))
	for i := range ds {
		ds[i] = &dgram{buf: make([]byte, readBufSize)}
		bufs[i] = ds[i].buf
	}
	return sw.readErr(ctx, sw.readLoop(l, br, pool, ds, bufs, sizes))
}

// readLoop is the one read loop: fill the batch, then process each
// datagram in place when the lane has no inbox (it is its own processor),
// or hand it to its owner and take a fresh buffer for the slot.
//
//camus:hotpath
func (sw *Switch) readLoop(l *lane, br *batchReader, pool *dgramPool, ds []*dgram, bufs [][]byte, sizes []int) error {
	for {
		rs := time.Now()
		n, err := br.ReadBatch(bufs, sizes)
		l.busyRead.Add(int64(time.Since(rs)))
		for i := 0; i < n; i++ {
			d := ds[i]
			d.n = sizes[i]
			sw.stats.Datagrams.Add(1)
			if l.ch == nil {
				l.datagrams.Add(1)
				sw.timeProcess(l, d.buf[:d.n])
				continue
			}
			sw.dispatch(l, d)
			//camus:alloc-ok get is inlined here: a pool miss grows the working set once; the steady state recycles
			ds[i] = pool.get()
			bufs[i] = ds[i].buf
		}
		if err != nil {
			return err
		}
	}
}

// dispatch hands a datagram read on l's socket to the lane that owns it
// (l itself when there is no add-order to key on). On the shared socket the
// arrival is counted at the owner and nothing is a re-shard; on a lane
// socket it is counted where it was read, and a datagram owned elsewhere is
// the re-shard hop. The uncontended enqueue is dispatch time; blocking on a
// full inbox is stall time (backpressure from a saturated lane is not
// reader work).
//
//camus:hotpath
func (sw *Switch) dispatch(l *lane, d *dgram) {
	start := time.Now()
	owner := l
	if loc, ok := itch.FirstAddOrderLocate(d.buf[:d.n]); ok {
		owner = sw.lanes[int(loc)%len(sw.lanes)]
	}
	arrived := l
	if sw.mode == IngressShared {
		arrived = owner
	}
	arrived.datagrams.Add(1)
	if owner != arrived {
		l.resharedOut.Add(1)
		sw.stats.Resharded.Add(1)
	}
	d.src = int32(arrived.id)
	select {
	case owner.ch <- d:
		l.busyDispatch.Add(int64(time.Since(start)))
	default:
		mid := time.Now()
		l.busyDispatch.Add(int64(mid.Sub(start)))
		owner.ch <- d
		l.busyStall.Add(int64(time.Since(mid)))
	}
}

// readOne is the portable reader: one ReadFromUDP per ReadBatch, so a
// batch of one. It is the only reader on platforms without recvmmsg, on
// fault-injection wrapped sockets and when batching is off.
//
//camus:hotpath
func readOne(c Conn, bufs [][]byte, sizes []int) (int, error) {
	n, _, err := c.ReadFromUDP(bufs[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
	return 1, nil
}
