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

// reuseportAvailable says whether a multi-lane switch binds one
// SO_REUSEPORT socket per lane; it is a variable (initialized from the
// build-tagged reuseportOS constant) so tests can force the one-socket
// fallback on any platform.
var reuseportAvailable = reuseportOS

// lane is one ingress/processing path of the switch. Where the platform
// has SO_REUSEPORT each lane owns a socket bound to the shared ingress
// address; on the one-socket fallback every lane's conn aliases the one
// ingress socket, which lane 0 reads and every lane writes egress to.
// Busy-time counters are split so throughput experiments can attribute
// cost per stage per lane — the read, dispatch and stall clocks belong to
// the lane whose socket the reader drains — and the counters are
// registered per lane (label lane="N") when telemetry is attached.
type lane struct {
	id   int
	conn Conn
	ch   chan *dgram // processor inbox; nil when the lane processes inline
	st   *procState

	busyRead     atomic.Int64 // ns inside socket read calls on this lane
	busyDispatch atomic.Int64 // ns computing shard keys + enqueueing handoffs
	busyStall    atomic.Int64 // ns blocked on a full lane inbox (backpressure)
	busyProc     atomic.Int64 // ns evaluating and forwarding datagrams

	datagrams   telemetry.Counter // ingress datagrams read from this lane's socket
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
	Datagrams   uint64 // ingress datagrams read from this lane's socket
	ResharedIn  uint64 // datagrams received from other lanes' readers
	ResharedOut uint64 // datagrams this lane's reader handed elsewhere
	ReadNs      int64  // socket read busy time
	DispatchNs  int64  // shard key + enqueue busy time (stalls excluded)
	StallNs     int64  // time blocked on full lane inboxes
	ProcNs      int64  // processing busy time
}

// LaneStats snapshots every lane's counters. The read, dispatch and stall
// clocks are those of the lane's own reader, so on one socket they are all
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
// plus one batch in each processor's hands.
func (sw *Switch) poolCapacity() int {
	return len(sw.lanes) * (shardQueueDepth + 2*sw.batch)
}

// dgram is one ingress datagram buffer: a slot of a reader's batch, or in
// flight between a reader and the lane that owns it. src is the lane whose
// socket read it (for re-shard accounting).
type dgram struct {
	buf []byte
	n   int
	src int32
}

// sharded reports whether lanes have inboxes: with more than one, a
// datagram is owned by the lane its first add-order's stock locate
// selects, and every lane has a processor; the one lane of a one-worker
// switch is processed inline by its reader.
func (sw *Switch) sharded() bool { return len(sw.lanes) > 1 }

// runIngress is the ingress engine: one reader per ingress socket, plus
// one processor per lane that has an inbox. It returns the first terminal
// failure — a read error on any socket or a panic on any goroutine that
// processes — and any such failure closes every socket, so no reader goes
// on feeding a switch that is going down and the kernel is not left
// hashing flows onto a socket nobody reads.
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
				sw.processInbox(l, pool)
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

// readLoop is the one read loop: fill the batch, then process it in place
// as one lane batch when the lane has no inbox (it is its own processor),
// or hand each datagram to its owner and take a fresh buffer for the slot.
//
//camus:hotpath
func (sw *Switch) readLoop(l *lane, br *batchReader, pool *dgramPool, ds []*dgram, bufs [][]byte, sizes []int) error {
	for {
		rs := time.Now()
		n, err := br.ReadBatch(bufs, sizes)
		l.busyRead.Add(int64(time.Since(rs)))
		if n > 0 {
			sw.stats.Datagrams.Add(uint64(n))
			l.datagrams.Add(uint64(n))
		}
		for i := 0; i < n; i++ {
			ds[i].n = sizes[i]
			if l.ch != nil {
				sw.dispatch(l, ds[i])
				//camus:alloc-ok get is inlined here: a pool miss grows the working set once; the steady state recycles
				ds[i] = pool.get()
				bufs[i] = ds[i].buf
			}
		}
		if l.ch == nil && n > 0 {
			sw.processBatch(l, ds[:n])
		}
		if err != nil {
			return err
		}
	}
}

// processInbox is a lane's processor: it takes what the inbox holds, up to
// a batch, without waiting for more, processes it as one lane batch, and
// only then returns the buffers the batch's messages alias to the pool.
//
//camus:hotpath
func (sw *Switch) processInbox(l *lane, pool *dgramPool) {
	//camus:alloc-ok one batch array per lane, for the lane's life
	batch := make([]*dgram, 0, sw.batch)
	for d := range l.ch {
		batch = append(batch[:0], d)
	drain:
		for len(batch) < cap(batch) {
			select {
			case d, ok := <-l.ch:
				if !ok {
					break drain
				}
				batch = append(batch, d)
			default:
				break drain
			}
		}
		for _, d := range batch {
			if int(d.src) != l.id {
				l.resharedIn.Add(1)
			}
		}
		sw.processBatch(l, batch)
		for i, d := range batch {
			pool.put(d)
			batch[i] = nil
		}
	}
}

// processBatch runs one lane batch — the datagrams one read or one inbox
// drain already held — on one generation and one clock reading, then
// flushes once: one framing pass and one run of writer calls for the whole
// batch. Lane busy time and the latency histogram take one sample per
// batch.
//
//camus:hotpath
func (sw *Switch) processBatch(l *lane, ds []*dgram) {
	start := time.Now()
	l.st.begin(start)
	for _, d := range ds {
		if sw.procTestHook != nil {
			sw.procTestHook(l.id, d.buf[:d.n])
		}
		sw.evaluate(l.st, d.buf[:d.n])
	}
	sw.flush(l.st)
	d := time.Since(start)
	l.busyProc.Add(int64(d))
	if sw.procHist != nil {
		sw.procHist.Observe(d)
	}
}

// dispatch hands a datagram read on l's socket to the lane that owns it
// (l itself when there is no add-order to key on); a datagram owned
// elsewhere is the re-shard hop. The uncontended enqueue is dispatch time;
// blocking on a full inbox is stall time (backpressure from a saturated
// lane is not reader work).
//
//camus:hotpath
func (sw *Switch) dispatch(l *lane, d *dgram) {
	start := time.Now()
	owner := l
	if loc, ok := itch.FirstAddOrderLocate(d.buf[:d.n]); ok {
		owner = sw.lanes[int(loc)%len(sw.lanes)]
	}
	if owner != l {
		l.resharedOut.Add(1)
		sw.stats.Resharded.Add(1)
	}
	d.src = int32(l.id)
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
