package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"camus/internal/dataplane"
	"camus/internal/telemetry"
)

// Phases a datagram can belong to, carried in AddOrder.TrackingNumber so a
// probe knows which deliveries to time.
const (
	phaseWarm uint16 = iota
	phasePaced
	phaseClosed
	phaseControl
)

const (
	tick          = time.Millisecond
	windowDgrams  = 32                     // closed phase: datagrams per window, then one marker
	windowsInAir  = 4                      // windows outstanding before the publisher waits (closed) or skips a tick (paced)
	minWindow     = 16                     // paced phase: datagrams before a burst is worth a marker
	readEvery     = 500 * time.Millisecond // paced phase: spacing of CPU and busy-clock readings
	creditTimeout = 10 * time.Second
	markerRing    = 64
)

// harness is one cold set-up of the system under test in its production
// configuration: a publisher socket, dataplane.Listen/Run on loopback, two
// probe Receivers and, where the workload has more ports than probes, one
// bound-never-read sink socket.
type harness struct {
	w  *workloadDef
	in *inputs
	t0 time.Time
	sw *dataplane.Switch

	probes [2]*probe
	sink   *net.UDPConn
	pub    *net.UDPConn

	credit    chan int64 // one per marker every probe has delivered: when the last one did
	markerCnt [markerRing]atomic.Uint32

	sent    uint64       // datagrams published, markers excluded
	markers uint64       // marker datagrams published
	epochs  []epochAt    // rule-set judgement per datagram range, for the oracle
	judge   atomic.Int32 // packed rule-set pair a datagram sent now may be judged by
	lates   []float64    // paced phase: write time minus due time per tick, µs
	skipped int          // paced ticks not sent because the path had stalled

	stop context.CancelFunc
	wg   sync.WaitGroup
	errs chan error
}

// epochAt says datagrams from index d on are judged by rule set a or b
// (a == b outside an update).
type epochAt struct {
	d    uint64
	a, b int
}

func packJudge(a, b int) int32 { return int32(a<<8 | b) }

// probe is one subscriber under observation.
type probe struct {
	h    *harness
	rx   *dataplane.Receiver
	seen []uint64 // bitset over message numbers
	last uint64   // highest ingress datagram a delivery came from

	delivered, dups, reordered, gapLost uint64
	lat                                 []latSample // paced-phase deliveries
}

type latSample struct {
	stamp int64 // write time, ns since harness start
	ns    int64 // write -> OnMessage
}

func (p *probe) onMessage(_ uint64, msg []byte) {
	now := time.Since(p.h.t0).Nanoseconds()
	if len(msg) < offRef+8 {
		return
	}
	ref := binary.BigEndian.Uint64(msg[offRef:])
	if ref&markerBit != 0 {
		id := ref &^ markerBit
		c := &p.h.markerCnt[id%markerRing]
		if c.Add(1) == uint32(len(p.h.probes)) {
			c.Store(0)
			p.h.credit <- now
		}
		return
	}
	p.delivered++
	word, bit := ref/64, uint64(1)<<(ref%64)
	for word >= uint64(len(p.seen)) {
		p.seen = append(p.seen, make([]uint64, len(p.seen)+1024)...)
	}
	switch {
	case p.seen[word]&bit != 0:
		p.dups++
	case ref/msgsPerDgram < p.last:
		p.reordered++
	default:
		p.last = ref / msgsPerDgram
	}
	p.seen[word] |= bit
	if binary.BigEndian.Uint16(msg[offTracking:]) == phasePaced {
		stamp := int64(uint48(msg[offStamp:]))
		p.lat = append(p.lat, latSample{stamp: stamp, ns: now - stamp})
	}
}

func (p *probe) has(g uint64) bool {
	w := g / 64
	return w < uint64(len(p.seen)) && p.seen[w]&(1<<(g%64)) != 0
}

// setup builds one harness: the inputs from the seed, then the switch in
// camus-switch's default configuration, then the subscribers.
func setup(w *workloadDef, seed int64, tr *tracer, parent int) (*harness, error) {
	h := &harness{w: w, t0: time.Now(), credit: make(chan int64, markerRing), errs: make(chan error, 4)}

	s := tr.begin("workload.generate", parent)
	h.in = generate(w, seed)
	tr.end(s)

	sp, err := w.spec()
	if err != nil {
		return nil, err
	}
	s = tr.begin("dataplane.listen", parent)
	h.sw, err = dataplane.Listen(dataplane.Config{
		Spec:          sp,
		Subscriptions: h.in.sets[0].src,
		Workers:       1,
		Batch:         32,
		RetxBuffer:    4096,
		Heartbeat:     time.Second,
		Telemetry:     telemetry.New(),
	})
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}

	s = tr.begin("subscribe", parent)
	defer tr.end(s)
	ctx, cancel := context.WithCancel(context.Background())
	h.stop = cancel
	isProbe := map[int]bool{}
	for i, port := range w.probes {
		p := &probe{h: h, lat: make([]latSample, 0, 1<<16)}
		p.rx, err = dataplane.NewReceiver(dataplane.ReceiverConfig{
			Retx:      h.sw.RetxAddr().String(),
			Seed:      seed + int64(i),
			OnMessage: p.onMessage,
			OnGap:     func(from, to uint64) { p.gapLost += to - from },
		})
		if err != nil {
			h.close()
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		h.probes[i] = p
		isProbe[port] = true
		if _, err := h.sw.Subscribe(dataplane.SubscriberConfig{Port: port, Addr: p.rx.Addr().String(), Group: "probe"}); err != nil {
			h.close()
			return nil, err
		}
	}
	if w.sink {
		// Every other port sends to one socket nobody reads: the switch
		// pays the full send, the host is not asked to run 318 readers.
		h.sink, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			h.close()
			return nil, err
		}
		_ = h.sink.SetReadBuffer(1) // the kernel clamps to its minimum
		for port := 1; port <= w.hosts; port++ {
			if isProbe[port] {
				continue
			}
			if _, err := h.sw.Subscribe(dataplane.SubscriberConfig{Port: port, Addr: h.sink.LocalAddr().String(), Group: "sink"}); err != nil {
				h.close()
				return nil, err
			}
		}
	}
	h.pub, err = net.DialUDP("udp", nil, h.sw.Addr())
	if err != nil {
		h.close()
		return nil, err
	}
	h.goRun(func() error { return h.sw.Run(ctx) })
	for _, p := range h.probes {
		p := p
		h.goRun(func() error { return p.rx.Run(ctx) })
	}
	h.setJudge(0, 0)
	return h, nil
}

func (h *harness) goRun(f func() error) {
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		if err := f(); err != nil {
			select {
			case h.errs <- err:
			default:
			}
		}
	}()
}

// close stops the switch and the probes and waits for their goroutines.
func (h *harness) close() {
	if h.stop != nil {
		h.stop()
	}
	if h.sw != nil {
		h.sw.Close()
	}
	h.wg.Wait()
	for _, p := range h.probes {
		if p != nil && p.rx != nil {
			p.rx.Close()
		}
	}
	if h.sink != nil {
		h.sink.Close()
	}
	if h.pub != nil {
		h.pub.Close()
	}
}

func (h *harness) setJudge(a, b int) { h.judge.Store(packJudge(a, b)) }

// send publishes the next template datagram: every message gets its
// global number as OrderRef and the time of this write as Timestamp.
func (h *harness) send(phase uint16) error {
	if j := h.judge.Load(); len(h.epochs) == 0 || packJudge(h.epochs[len(h.epochs)-1].a, h.epochs[len(h.epochs)-1].b) != j {
		h.epochs = append(h.epochs, epochAt{d: h.sent, a: int(j >> 8), b: int(j & 0xff)})
	}
	wire := h.in.wires[h.sent%templates]
	now := uint64(time.Since(h.t0).Nanoseconds())
	for k := 0; k < msgsPerDgram; k++ {
		m := wire[wireMsg0+k*wireStride:]
		binary.BigEndian.PutUint16(m[offTracking:], phase)
		putUint48(m[offStamp:], now)
		binary.BigEndian.PutUint64(m[offRef:], h.sent*msgsPerDgram+uint64(k))
	}
	if _, err := h.pub.Write(wire); err != nil {
		return fmt.Errorf("publish: %w", err)
	}
	h.sent++
	return nil
}

func (h *harness) sendMarker() error {
	binary.BigEndian.PutUint64(h.in.marker[wireMsg0+offRef:], markerBit|h.markers)
	if _, err := h.pub.Write(h.in.marker); err != nil {
		return fmt.Errorf("publish marker: %w", err)
	}
	h.markers++
	return nil
}

// awaitCredit blocks until every probe has delivered one more marker and
// returns when the last of them did, in ns since the harness started.
// Per-port streams are ordered, so a credit also means every message sent
// before the marker has been delivered or reported lost.
func (h *harness) awaitCredit() (int64, error) {
	select {
	case at := <-h.credit:
		return at, nil
	case err := <-h.errs:
		return 0, err
	case <-time.After(creditTimeout):
		return 0, errors.New("a marker was not delivered to every probe: the path lost it beyond recovery")
	}
}

// reading is what the paced phase records every readEvery.
type reading struct {
	msgs   uint64
	cpuUS  float64
	procNs int64
	at     time.Duration
}

func (h *harness) reading(start time.Time) reading {
	_, proc := h.sw.BusyNs()
	return reading{msgs: h.sent * msgsPerDgram, cpuUS: cpuMicros(), procNs: proc, at: time.Since(start)}
}

// paced is the open-loop phase: rate datagrams per second, released in one
// back-to-back burst per 1 ms tick, each datagram stamped as it is written.
// A burst never grows to make up for a late tick, so what a message queues
// behind is the same on every tick: a tick that comes a whole tick late is
// skipped, not doubled. Bursts are closed by markers, and a tick that
// finds windowsInAir of them uncredited is skipped too: a stalled path is
// offered no more than a socket buffer holds, so nothing is lost.
// It runs until d has passed or stop is closed, answers barrier requests
// between ticks, and returns a reading per readEvery.
func (h *harness) paced(phase uint16, rate int, d time.Duration, stop <-chan struct{}, barriers <-chan chan error) ([]reading, error) {
	start := time.Now()
	out := []reading{h.reading(start)}
	var owed float64 // datagrams due, fraction carried
	inAir, open := 0, 0
	drain := func() error {
		if open > 0 {
			if err := h.sendMarker(); err != nil {
				return err
			}
			inAir, open = inAir+1, 0
		}
		for ; inAir > 0; inAir-- {
			if _, err := h.awaitCredit(); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * tick)
		if d > 0 && due.Sub(start) >= d {
			break
		}
		sleepUntil(due)
		select {
		case <-stop:
			return out, drain()
		case reply := <-barriers:
			reply <- drain()
		default:
		}
		for ; len(h.credit) > 0; inAir-- {
			<-h.credit
		}
		late := time.Since(due)
		if phase == phasePaced {
			h.lates = append(h.lates, float64(late.Nanoseconds())/1e3)
		}
		if inAir >= windowsInAir || late >= tick {
			h.skipped++
			continue
		}
		owed += float64(rate) * tick.Seconds()
		for ; owed >= 1; owed-- {
			if err := h.send(phase); err != nil {
				return nil, err
			}
			open++
		}
		if open >= minWindow {
			if err := h.sendMarker(); err != nil {
				return nil, err
			}
			inAir, open = inAir+1, 0
		}
		// A periodic reading, unless the closing one is about to follow.
		if el := time.Since(start); phase == phasePaced && el >= readEvery*time.Duration(len(out)) && d-el >= readEvery/2 {
			out = append(out, h.reading(start))
		}
	}
	if err := drain(); err != nil {
		return nil, err
	}
	return append(out, h.reading(start)), nil
}

// sleepUntil blocks the calling thread in nanosleep: Go's timers round a
// sub-millisecond sleep up to a millisecond when the process is otherwise
// idle, which would make every tick half a tick late.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake only makes the tick early
	}
}

// closed is the closed-loop phase: windows of windowDgrams datagrams, each
// ended by a marker, at most windowsInAir uncredited. Credit needs every
// probe, so the publisher runs at the pace of the slowest stage and
// nothing is dropped: the rate is goodput. It returns when the phase began
// and when each window was credited, in ns since the harness started.
func (h *harness) closed(d time.Duration, tr *tracer, parent int) ([]int64, error) {
	start := time.Now()
	credits := []int64{start.Sub(h.t0).Nanoseconds()}
	var spans []int
	credit := func() error {
		at, err := h.awaitCredit()
		if err != nil {
			return err
		}
		credits = append(credits, at)
		tr.end(spans[0])
		spans = spans[1:]
		return nil
	}
	for time.Since(start) < d {
		for len(spans) >= windowsInAir {
			if err := credit(); err != nil {
				return nil, err
			}
		}
		spans = append(spans, tr.begin("window", parent))
		for i := 0; i < windowDgrams; i++ {
			if err := h.send(phaseClosed); err != nil {
				return nil, err
			}
		}
		if err := h.sendMarker(); err != nil {
			return nil, err
		}
	}
	for len(spans) > 0 {
		if err := credit(); err != nil {
			return nil, err
		}
	}
	return credits, nil
}

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
