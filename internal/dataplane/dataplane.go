// Package dataplane runs a Camus program as a real UDP software switch:
// it receives MoldUDP64 market-data datagrams on an ingress socket,
// evaluates every ITCH message against the compiled subscription pipeline,
// and forwards matching messages to the UDP endpoints bound to the switch
// output ports.
//
// This is the deployable software stand-in for the ASIC: the same
// compiled Program drives both. It exists so the system can be exercised
// end-to-end over an actual network (see cmd/camus-switch), not just
// inside the discrete-event simulator.
//
// Delivery is fault tolerant in the MoldUDP64 sense: every output port is
// its own downstream session with a dense per-port sequence space, recent
// egress messages are retained in a bounded retransmission store served
// on a dedicated request socket, idle ports emit heartbeats, and shutdown
// announces end-of-session. The subscriber half lives in Receiver, which
// detects gaps and recovers them through the request channel.
package dataplane

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/core"
	"camus/internal/itch"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// Conn is the UDP socket surface the switch and receiver run on. It is
// satisfied by *net.UDPConn and, structurally, by faults.Conn wrappers,
// which is how chaos tests interpose loss, duplication, and reordering.
type Conn interface {
	ReadFromUDP(b []byte) (int, *net.UDPAddr, error)
	WriteToUDP(b []byte, addr *net.UDPAddr) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
	LocalAddr() net.Addr
}

var _ Conn = (*net.UDPConn)(nil)

// switchStats are the switch's forwarding counters. All fields are
// updated atomically and may be read concurrently with Run.
//
// The fields are telemetry.Counter values: when the switch is created
// with Config.Telemetry they are registered in the shared registry (as
// camus_dataplane_*_total) and this struct is a view over it — the
// counters updated here and the series scraped from /metrics are the
// same memory. The struct itself is unexported: out-of-package readers
// go through Switch.Metric (one series at a time, by registry name) or
// the unified telemetry Snapshot.
type switchStats struct {
	Datagrams    telemetry.Counter // ingress datagrams received
	Messages     telemetry.Counter // ITCH messages evaluated
	Matched      telemetry.Counter // messages that matched >= 1 subscription
	Forwarded    telemetry.Counter // egress datagrams sent
	SendCalls    telemetry.Counter // egress writer calls: one per sendmmsg or portable WriteToUDP (and per batch refused for its first address)
	DecodeErrors telemetry.Counter
	SendErrors   telemetry.Counter
	UnboundPort  telemetry.Counter // egress frames black-holed, one per unbound member port
	Heartbeats   telemetry.Counter // idle heartbeats sent
	RetxRequests telemetry.Counter // retransmission requests served
	RetxMessages telemetry.Counter // messages resent from the store
	RetxBad      telemetry.Counter // malformed or unroutable retransmission requests skipped
	Resharded    telemetry.Counter // datagrams moved lane-to-lane by the re-shard hop
	PoolMiss     telemetry.Counter // ingress buffers allocated because the free list was empty

	// Encode-once accounting, multicast groups only (a single-port action
	// shares its body with nobody): a "group encode" serializes one matched
	// message batch once for a whole group; a "group send" is one member
	// port served from that shared encoding. sends/encodes is the hit ratio
	// (the fanout amplification per-port serialization used to pay in CPU).
	GroupEncodes    telemetry.Counter // shared bodies serialized (one per group frame)
	GroupSends      telemetry.Counter // member-port datagrams served from a shared body
	GroupBytesSaved telemetry.Counter // body bytes NOT re-serialized thanks to sharing
}

// statSeries names one counter of switchStats.
type statSeries struct {
	name string
	c    *telemetry.Counter
}

// series lists every counter under its canonical registry name — the one
// table register and Switch.Metric both read, so a series cannot exist in
// one and be missing from the other.
func (s *switchStats) series() []statSeries {
	return []statSeries{
		{"camus_dataplane_datagrams_total", &s.Datagrams},
		{"camus_dataplane_messages_total", &s.Messages},
		{"camus_dataplane_matched_total", &s.Matched},
		{"camus_dataplane_forwarded_total", &s.Forwarded},
		{"camus_dataplane_send_calls_total", &s.SendCalls},
		{"camus_dataplane_decode_errors_total", &s.DecodeErrors},
		{"camus_dataplane_send_errors_total", &s.SendErrors},
		{"camus_dataplane_unbound_port_total", &s.UnboundPort},
		{"camus_dataplane_heartbeats_total", &s.Heartbeats},
		{"camus_dataplane_retx_requests_total", &s.RetxRequests},
		{"camus_dataplane_retx_messages_total", &s.RetxMessages},
		{"camus_dataplane_retx_bad_total", &s.RetxBad},
		{"camus_dataplane_resharded_total", &s.Resharded},
		{"camus_dataplane_pool_miss_total", &s.PoolMiss},
		{"camus_dataplane_group_encodes_total", &s.GroupEncodes},
		{"camus_dataplane_group_sends_total", &s.GroupSends},
		{"camus_dataplane_group_bytes_saved_total", &s.GroupBytesSaved},
	}
}

// register adopts every counter into reg under its canonical series name.
func (s *switchStats) register(reg *telemetry.Registry) {
	for _, e := range s.series() {
		reg.RegisterCounter(e.name, e.c)
	}
}

// Config configures a dataplane switch.
type Config struct {
	// Ingress is the UDP listen address ("127.0.0.1:26400"; empty chooses
	// a random localhost port).
	Ingress string
	// Retx is the retransmission-request listen address (empty binds a
	// random port on the ingress IP).
	Retx string
	// Spec is the message format; Subscriptions the initial rule set.
	Spec          *spec.Spec
	Subscriptions string
	// Session is the egress session prefix; each port's session is the
	// prefix padded to 7 bytes plus the 3-digit port number, giving every
	// subscriber its own MoldUDP64 stream identity. Ports of 1000 and up
	// take the extra digits from the prefix's tail (see sessionFor).
	// Default "CAMUS".
	Session string
	// RetxBuffer bounds how many egress messages each port retains for
	// retransmission (default 4096; negative disables the store). It is
	// a bound, not a reservation: a port's ring grows toward it as the
	// port sends, so binding a port costs the same whatever the bound.
	RetxBuffer int
	// Heartbeat is the idle-heartbeat interval per port (0 disables).
	Heartbeat time.Duration
	// Workers is the number of lanes evaluating ingress datagrams
	// (default 1: one socket whose reader processes inline). With more,
	// each datagram is owned by the lane its first add-order's ITCH stock
	// locate (instrument) selects, locate % Workers, so all messages of one
	// instrument are processed by the same lane in arrival order; per-port
	// egress sequence numbering stays dense and race-free at any worker
	// count. Where the platform has SO_REUSEPORT (Linux) the switch binds
	// one socket per lane to the ingress address and each socket's reader
	// hands datagrams to their owners; elsewhere one socket's reader does.
	Workers int
	// Batch is how many datagrams one socket operation moves when the
	// platform supports batched I/O (recvmmsg/sendmmsg on Linux); on
	// other platforms and on fault-injection wrapped sockets the same
	// loops run on per-datagram calls. It also bounds a lane batch, the
	// datagrams one flush frames and sends. 0 selects the default (32);
	// negative or 1 disables batching.
	Batch int
	// WrapConn, when non-nil, wraps each socket the switch opens (the
	// ingress data sockets in lane order — Workers of them where the
	// switch binds one per lane, else one — then retransmission) — the
	// fault-injection hook.
	WrapConn func(Conn) Conn
	// Telemetry, when non-nil, receives the switch's forwarding counters,
	// a per-lane-batch processing-latency histogram, and everything the
	// embedded compiler/control-plane/pipeline layers record.
	Telemetry *telemetry.Telemetry
}

// readBufSize is the datagram receive buffer: 64 KiB holds any UDP
// payload, so no datagram is truncated.
const readBufSize = 64 << 10

// defaultRetxBuffer is the per-port retransmission store bound in messages.
const defaultRetxBuffer = 4096

// defaultIOBatch is how many datagrams one recvmmsg/sendmmsg moves when
// Config.Batch is unset.
const defaultIOBatch = 32

// shardQueueDepth is the per-worker ingress channel capacity; the kernel
// socket buffer absorbs bursts beyond it while the reader blocks.
const shardQueueDepth = 256

// maxRetxDatagram caps the wire size of one egress frame and of one
// retransmission reply, so forwarded and recovery traffic alike stay
// within a conventional MTU.
const maxRetxDatagram = 1400

// portState is one output port's delivery state: its own MoldUDP64
// session with a dense sequence space and a bounded retransmission store.
type portState struct {
	// The leading fields, through session, are everything a group-egress
	// member visit touches, packed so the visit dirties a single cacheline
	// (TestPortStateHotPrefixFitsALine holds them to 64 bytes): at high
	// fanout thousands of portStates are walked per datagram and none
	// stay cache-resident, so the per-member cost is line fills, not
	// instructions. lastEgress is UnixNano rather than time.Time for
	// the same reason (8 bytes instead of 24).
	mu         sync.Mutex
	nextSeq    uint64 // sequence of the next egress message
	addr       *net.UDPAddr
	store      *retxStore
	lastEgress int64 // UnixNano of the latest egress frame
	session    [10]byte

	port int

	// sub is the Subscription that currently owns the port; group its
	// operator-assigned cohort label. Both are guarded by Switch.mu, not
	// ps.mu.
	sub   *Subscription
	group string
}

// stamp writes the port's next MoldUDP64 header — session, next sequence,
// count — into hdr (itch.MoldHeaderLen bytes): the one place a frame, a
// heartbeat, an empty retransmission reply and end-of-session get their
// header from. Callers hold ps.mu. The fields are stored directly: going
// through an itch.MoldHeader value costs a group frame ~12 ns per member.
//
//camus:hotpath
func (ps *portState) stamp(hdr []byte, count uint16) {
	copy(hdr[0:10], ps.session[:])
	binary.BigEndian.PutUint64(hdr[10:18], ps.nextSeq)
	binary.BigEndian.PutUint16(hdr[18:20], count)
}

// Switch is a running UDP dataplane.
type Switch struct {
	conn   Conn   // first ingress socket: egress writes, heartbeats, EOS
	conns  []Conn // all ingress sockets (one per lane where SO_REUSEPORT binds them)
	retx   Conn
	engine *core.PubSub

	mu        sync.RWMutex // guards port binding; lanes take it only to frame
	ports     map[int]*portState
	bySession map[[10]byte]*portState
	portIdx   []*portState // dense port-number index; hot-path view of ports

	session   string
	retxCap   int
	heartbeat time.Duration
	batch     int
	lanes     []*lane

	// bodies is the shared-buffer free list every egress frame is encoded
	// into.
	bodies *sharedPool

	stats    switchStats
	tel      *telemetry.Telemetry
	procHist *telemetry.Histogram // per-lane-batch processing latency; nil when untimed
	portsG   *telemetry.Gauge

	// Per-port egress write-error attribution, created lazily on a
	// port's first failed write so series cardinality stays bounded by
	// the set of ports that have ever erred.
	portErrMu sync.Mutex
	portErrs  map[int]*telemetry.Counter

	// Subscriber-group occupancy (camus_dataplane_subscribers{group=…}),
	// maintained by Subscribe/Close under mu.
	subCounts map[string]int

	closeMu   sync.Mutex
	closed    bool
	runActive bool
	runDone   chan struct{}
	draining  atomic.Bool // graceful shutdown requested; readers wind down

	// procTestHook, when non-nil, runs before each datagram is processed
	// on a lane — a test seam for injecting lane failures (panics) into
	// the ingress loop.
	procTestHook func(lane int, datagram []byte)
	// install installs a compiled program for SetSubscriptions; tests
	// replace it to hold an update mid-install.
	install func(context.Context, *compiler.Program) (controlplane.Delta, error)
}

// bindUDP binds a plain UDP socket to addr.
func bindUDP(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	return net.ListenUDP("udp", ua)
}

// Listen binds the ingress and retransmission sockets and
// compiles/installs the initial subscription set.
func Listen(cfg Config) (*Switch, error) {
	if cfg.Spec == nil {
		return nil, errors.New("dataplane: Config.Spec is required")
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	addr := cfg.Ingress
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	// One socket per lane where the platform has SO_REUSEPORT, all bound to
	// the same address so the kernel's flow hash spreads publisher flows
	// across them; else one socket.
	nsock, bind := 1, bindUDP
	if workers > 1 && reuseportAvailable {
		nsock, bind = workers, listenReusePort
	}
	var conns []Conn
	closeConns := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := 0; i < nsock; i++ {
		c, err := bind(addr)
		if err != nil {
			closeConns()
			return nil, fmt.Errorf("dataplane: listen ingress socket %d: %w", i, err)
		}
		// A deep socket buffer absorbs feed microbursts; best effort
		// (the OS may clamp it).
		_ = c.SetReadBuffer(8 << 20)
		conns = append(conns, c)
		// The first bind resolves a possibly-wildcard port; the other
		// lanes bind the concrete address it landed on.
		addr = c.LocalAddr().String()
	}

	retxAddr := cfg.Retx
	if retxAddr == "" {
		retxAddr = (&net.UDPAddr{IP: conns[0].LocalAddr().(*net.UDPAddr).IP}).String()
	}
	retx, err := bindUDP(retxAddr)
	if err != nil {
		closeConns()
		return nil, fmt.Errorf("dataplane: listen retx: %w", err)
	}

	engine, err := core.NewPubSub(cfg.Spec, core.Config{Telemetry: cfg.Telemetry})
	if err != nil {
		closeConns()
		retx.Close()
		return nil, err
	}
	sw := &Switch{
		conns:     conns,
		retx:      retx,
		engine:    engine,
		ports:     make(map[int]*portState),
		bySession: make(map[[10]byte]*portState),
		session:   cfg.Session,
		retxCap:   cfg.RetxBuffer,
		heartbeat: cfg.Heartbeat,
		tel:       cfg.Telemetry,
		portErrs:  make(map[int]*telemetry.Counter),
		subCounts: make(map[string]int),
		runDone:   make(chan struct{}),
		install:   engine.Install,
	}
	if sw.session == "" {
		sw.session = "CAMUS"
	}
	if sw.retxCap == 0 {
		sw.retxCap = defaultRetxBuffer
	}
	sw.batch = cfg.Batch
	if sw.batch == 0 {
		sw.batch = defaultIOBatch
	}
	if sw.batch < 1 {
		sw.batch = 1
	}
	if cfg.WrapConn != nil {
		for i := range sw.conns {
			sw.conns[i] = cfg.WrapConn(sw.conns[i])
		}
		sw.retx = cfg.WrapConn(sw.retx)
	}
	sw.conn = sw.conns[0]
	sw.lanes = make([]*lane, workers)
	for i := range sw.lanes {
		// Its own socket where there is one per lane, else the shared one.
		sw.lanes[i] = &lane{id: i, conn: sw.conns[i%len(sw.conns)]}
	}
	sw.bodies = newSharedPool(sharedPoolCapacity, readBufSize)
	if reg := cfg.Telemetry.Reg(); reg != nil {
		sw.stats.register(reg)
		sw.procHist = reg.Histogram("camus_dataplane_process_seconds")
		sw.portsG = reg.Gauge("camus_dataplane_ports_bound")
		reg.GaugeFunc("camus_dataplane_egress_groups", func() float64 { return float64(len(sw.Program().Groups)) })
		reg.Gauge("camus_dataplane_ingress_lanes").Set(int64(len(sw.lanes)))
		for _, l := range sw.lanes {
			l.register(reg)
		}
	}
	if cfg.Subscriptions != "" {
		if _, err := engine.SetSubscriptions(cfg.Subscriptions); err != nil {
			sw.closeConns()
			return nil, err
		}
	}
	return sw, nil
}

// closeConns closes every socket the switch owns (all ingress lanes and
// the retransmission socket).
func (sw *Switch) closeConns() {
	for _, c := range sw.conns {
		c.Close()
	}
	sw.retx.Close()
}

// Addr returns the ingress socket address publishers should send to.
func (sw *Switch) Addr() *net.UDPAddr { return sw.conn.LocalAddr().(*net.UDPAddr) }

// RetxAddr returns the retransmission-request socket address subscribers
// recover through.
func (sw *Switch) RetxAddr() *net.UDPAddr { return sw.retx.LocalAddr().(*net.UDPAddr) }

// Metric returns the live value of one of the switch's canonical counter
// series by its registry name (for example
// "camus_dataplane_matched_total"), whether or not the switch was created
// with Config.Telemetry. Unknown names return 0. This replaces the
// removed Stats() struct view: in-process readers name the one series
// they want; everything at once is Snapshot.
func (sw *Switch) Metric(name string) uint64 {
	for _, e := range sw.stats.series() {
		if e.name == name {
			return e.c.Load()
		}
	}
	return 0
}

// Snapshot captures every metric of the switch — socket counters,
// pipeline tables, compiler and control-plane series — in the unified
// telemetry schema. The zero Snapshot is returned when the switch was
// created without Config.Telemetry.
func (sw *Switch) Snapshot() telemetry.Snapshot { return sw.tel.Snapshot() }

// PortSession returns the MoldUDP64 session identifier of an output port.
func (sw *Switch) PortSession(port int) string {
	var s [10]byte
	sessionFor(&s, sw.session, port)
	return string(s[:])
}

// sessionFor derives a port's session id: the base padded or truncated to
// 7 bytes plus the zero-padded 3-digit port number. A port of 1000 or more
// takes the extra digits it needs from the tail of those 7 bytes — padding,
// under the default "CAMUS" — which keeps the default prefix injective over
// ports 0–99999. Subscribe rejects a port whose session another port holds,
// so a prefix that collides anyway never aliases two streams.
func sessionFor(dst *[10]byte, base string, port int) {
	p := uint64(port)
	digits := 3
	for q := p / 1000; q != 0 && digits < len(dst); q /= 10 {
		digits++
	}
	for i := range dst[:len(dst)-digits] {
		if i < len(base) {
			dst[i] = base[i]
		} else {
			dst[i] = ' '
		}
	}
	for i := len(dst) - 1; i >= len(dst)-digits; i-- {
		dst[i] = byte('0' + p%10)
		p /= 10
	}
}

// portFor resolves a port number on the hot path. Callers hold sw.mu.
//
//camus:hotpath
func (sw *Switch) portFor(port int) *portState {
	if port < 0 || port >= len(sw.portIdx) {
		return nil
	}
	return sw.portIdx[port]
}

// SetSubscriptions compiles and installs a new rule set (the control
// plane's update path). Safe to call while Run is active.
func (sw *Switch) SetSubscriptions(src string) error {
	return sw.SetSubscriptionsContext(context.Background(), src)
}

// SetSubscriptionsContext is SetSubscriptions with a cancelable context: once
// ctx is done nothing new begins, and an install stops retrying and rolls back.
// It takes no lock a lane takes: forwarding goes on, judged by the old
// program, through the compile and the install, until the device publishes
// the new generation; each lane batch after that is judged by the new one.
func (sw *Switch) SetSubscriptionsContext(ctx context.Context, src string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	prog, err := sw.engine.Compile(ctx, src)
	if err != nil {
		return err
	}
	_, err = sw.install(ctx, prog)
	return err
}

// Telemetry returns the switch's shared telemetry (nil when the switch
// was created without Config.Telemetry).
func (sw *Switch) Telemetry() *telemetry.Telemetry { return sw.tel }

// RegisterDump snapshots the device's stateful registers for the window
// containing the current wall clock, at most maxPerVar keys per
// variable — the scrape behind the admin endpoint's /debug/registers.
// Reads go through the state engine's seqlock, never the packet path's
// write side, and never advance window state.
func (sw *Switch) RegisterDump(maxPerVar int) pipeline.RegisterDump {
	now := time.Duration(time.Now().UnixNano()) // the processing loops' clock
	return sw.Device().State().DebugDump(now, maxPerVar)
}

// Device exposes the underlying pipeline device for out-of-band control
// planes (the fabric's epoch controller installs programs through it,
// interposing fault-injection wrappers in tests). Writes to the device are
// atomic generation swaps, and the lanes and SetSubscriptions read the
// program from the device, so nothing else needs telling.
func (sw *Switch) Device() *pipeline.Switch { return sw.engine.Switch() }

// Program returns the program the device runs.
func (sw *Switch) Program() *compiler.Program { return sw.engine.Program() }

// Close shuts the switch down gracefully. When Run is active it begins a
// drain: the ingress readers stop taking new datagrams, every datagram
// already handed to a shard lane is processed and forwarded, and only
// then is the MoldUDP64 end-of-session announcement emitted on every
// bound port and the sockets closed — so no subscriber ever sees egress
// after the end-of-session frame, and the frame's sequence number covers
// everything that was delivered. Close returns after the read loops have
// exited, so no goroutine is still touching the switch afterwards. Close
// is idempotent; concurrent calls after the first return immediately
// (they may return before the first caller's drain completes).
func (sw *Switch) Close() error {
	sw.closeMu.Lock()
	if sw.closed {
		sw.closeMu.Unlock()
		return nil
	}
	sw.closed = true
	active := sw.runActive
	sw.closeMu.Unlock()

	if active {
		// Run's deferred shutdown emits end-of-session after the lanes
		// drain, then closes the sockets.
		sw.beginDrain()
		<-sw.runDone
		return nil
	}
	sw.endSession()
	sw.closeConns()
	return nil
}

// beginDrain asks every ingress reader to stop: an immediate read
// deadline wakes blocking reads (including recvmmsg batches), and the
// draining flag tells readErr to treat the resulting timeouts as a clean
// end-of-stream rather than an error. Egress writes are unaffected, so
// in-flight datagrams still go out.
func (sw *Switch) beginDrain() {
	sw.draining.Store(true)
	for _, c := range sw.conns {
		_ = c.SetReadDeadline(time.Now())
	}
}

// endSession sends the MoldUDP64 end-of-session announcement to every
// bound port (best effort).
func (sw *Switch) endSession() {
	sw.mu.RLock()
	defer sw.mu.RUnlock()
	// One frame buffer reused across ports: at large subscriber counts a
	// per-port allocation here is the dominant Mallocs source of a whole
	// replay run, polluting steady-state alloc measurements.
	var eos [itch.MoldHeaderLen]byte
	for _, ps := range sw.ports {
		ps.mu.Lock()
		ps.stamp(eos[:], itch.EndOfSessionCount)
		addr := ps.addr
		ps.mu.Unlock()
		_, _ = sw.conn.WriteToUDP(eos[:], addr)
	}
}

// Run processes ingress datagrams until ctx is canceled or the switch is
// closed, serving retransmission requests and emitting idle heartbeats on
// the side. Matched messages are re-framed per output port: each port is
// its own MoldUDP64 session with a dense sequence space, so subscribers
// can detect and repair loss.
//
// Ingress is one loop (see runIngress): a reader per ingress socket, and
// with Config.Workers > 1 a processor per lane fed by locate, so each
// instrument's messages are evaluated in arrival order by a single lane;
// datagrams of different instruments may be forwarded out of arrival
// order relative to each other, which the per-port dense sequencing plus
// receiver-side gap recovery already tolerates. A terminal read error on any ingress socket,
// or a panic while processing, ends Run with that error. Run may be called
// at most once.
func (sw *Switch) Run(ctx context.Context) error {
	sw.closeMu.Lock()
	if sw.closed {
		sw.closeMu.Unlock()
		return nil
	}
	sw.runActive = true
	sw.closeMu.Unlock()

	var aux sync.WaitGroup // serveRetx; exits when the retx socket closes
	var hb sync.WaitGroup  // heartbeatLoop; exits on hbStop
	hbStop := make(chan struct{})
	aux.Add(1)
	go func() { defer aux.Done(); sw.serveRetx() }()
	if sw.heartbeat > 0 {
		hb.Add(1)
		go func() { defer hb.Done(); sw.heartbeatLoop(hbStop) }()
	}
	go func() {
		select {
		case <-ctx.Done():
			sw.Close()
		case <-sw.runDone:
		}
	}()
	// Shutdown ordering is the graceful-drain contract: the processing
	// loops have returned (every datagram handed to a lane has been
	// forwarded), the heartbeat loop is stopped and joined so no
	// heartbeat can follow, then end-of-session goes out on every port
	// as the stream's final frame, and only then do the sockets close.
	defer func() {
		close(hbStop)
		hb.Wait()
		sw.endSession()
		sw.closeConns()
		aux.Wait()
		close(sw.runDone)
	}()

	for _, l := range sw.lanes {
		l.st = sw.newProcState(l.id, l.conn)
	}
	return sw.runIngress(ctx)
}

// readErr maps a terminal socket error to Run's return value. A read
// deadline while draining is the graceful-shutdown signal, not a fault.
func (sw *Switch) readErr(ctx context.Context, err error) error {
	if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
		return nil
	}
	if sw.draining.Load() {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return nil
		}
	}
	return fmt.Errorf("dataplane: read: %w", err)
}

// BusyNs reports cumulative per-stage busy time in nanoseconds: time
// spent on the ingress side (socket reads plus shard dispatch, summed
// over every reader; backpressure stalls excluded) and time spent
// processing datagrams (summed over lanes). Read time
// includes waiting for traffic, so the split is meaningful only when
// ingress is saturated — it exists for the socket benchmark's per-layer
// ledger (see benchmark/).
// Call after Run returns, or accept slightly stale values. LaneStats
// reports the same clocks broken out per lane.
func (sw *Switch) BusyNs() (readNs, procNs int64) {
	for _, l := range sw.lanes {
		readNs += l.busyRead.Load() + l.busyDispatch.Load()
		procNs += l.busyProc.Load()
	}
	return readNs, procNs
}

// procState is one processing lane's reusable scratch: a per-lane
// pipeline Processor (own value buffers), the message buckets, and the
// egress entry arrays. One lane processes one batch at a time, so nothing
// here needs locking and the steady state is allocation-free.
//
// Egress has one shape. Every matched message lands in a bucket — its
// action's multicast group, or the group of one a single-port action is —
// every bucket is serialized once into a refcounted sharedBuf, and every
// member port of the bucket gets one wireEntry. A bucket stays open across
// the datagrams of a lane batch and is framed when the batch ends, when a
// message of another bucket needs one of its ports, or when it is full.
type procState struct {
	proc    *core.Processor
	bw      *batchWriter  // the lane's egress writer (sendmmsg or portable)
	order   itch.AddOrder // decode scratch, kept off the per-call stack
	now     time.Duration // the batch's clock, read once per batch
	msgs    [][]byte      // raw wire bytes of this datagram's add-orders
	buckets []groupMsgs   // dense index: 2g is multicast group g, 2p+1 the single-port action on port p
	touched []int         // open buckets (>= 1 message), in first-touch order
	open    []uint64      // bitmap of the open buckets' ports, which are pairwise disjoint

	out []wireEntry // this batch's egress

	owned []*sharedBuf // buffers this batch holds a lane reference on
}

// wireEntry is one egress datagram: the member port's own MoldUDP64
// header, and the bucket's shared buffer — a scratch header region, then
// the encoded body every member sends.
type wireEntry struct {
	hdr  [itch.MoldHeaderLen]byte
	body []byte
	addr *net.UDPAddr
	port int // destination port, for error attribution
}

// groupMsgs buckets one action's matched messages until they are framed.
// ports is the batch's program's ActionSet member set (immutable) — one
// port for a single-port action; size is the frame's wire bytes so far.
type groupMsgs struct {
	msgs  [][]byte
	ports compiler.PortSet
	size  int
}

// newProcState builds a lane's scratch with egress bound to conn — where
// lanes have their own sockets each ships its egress through its own,
// spreading send-side work the same way ingress is spread — and stateful
// register writes bound to the lane's own state lane (the pipeline's
// single-writer contract), so the keyed-state packet path takes no lock.
func (sw *Switch) newProcState(lane int, conn Conn) *procState {
	return &procState{proc: sw.engine.NewProcessorAt(lane), bw: newBatchWriter(conn, sw.batch)}
}

// begin starts a lane batch at now: every datagram of the batch is judged
// by the one generation Begin loads — so a bucket index keeps one meaning
// until the batch's flush — and stamped with the one clock reading.
//
//camus:hotpath
func (st *procState) begin(now time.Time) {
	st.proc.Begin()
	st.now = time.Duration(now.UnixNano())
}

// collect appends msg to bucket i, growing the dense index on first sight.
// A message that opens a bucket whose ports meet an open bucket's first
// frames every open bucket, and one that would take its bucket's frame past
// maxRetxDatagram first frames that bucket: so every port receives its
// messages in ingress order, in frames that fit an MTU.
//
//camus:hotpath
func (sw *Switch) collect(st *procState, i int, ports compiler.PortSet, msg []byte) {
	for i >= len(st.buckets) {
		st.buckets = append(st.buckets, groupMsgs{})
	}
	b := &st.buckets[i]
	if len(b.msgs) == 0 {
		var met bool
		if st.open, met = ports.Mark(st.open); met {
			sw.frameOpen(st)
			st.open, _ = ports.Mark(st.open)
		}
		st.touched = append(st.touched, i)
		b.ports, b.size = ports, itch.MoldHeaderLen
	} else if b.size+2+len(msg) > maxRetxDatagram {
		// Framed and still open: its ports stay marked.
		sw.mu.RLock()
		sw.frameGroup(st, b)
		sw.mu.RUnlock()
	}
	b.msgs = append(b.msgs, msg)
	b.size += 2 + len(msg)
}

// frameOpen frames every open bucket, in first-touch order, under the
// port-binding lock and closes them all. Open buckets share no port, so
// their order is nobody's arrival order.
//
//camus:hotpath
func (sw *Switch) frameOpen(st *procState) {
	sw.mu.RLock()
	for _, i := range st.touched {
		b := &st.buckets[i]
		sw.frameGroup(st, b)
		b.ports = compiler.PortSet{}
	}
	sw.mu.RUnlock()
	st.touched = st.touched[:0]
	clear(st.open)
}

// nextOut claims the next egress entry in place: at high fanout building
// the entry elsewhere and copying it in shows up per member.
//
//camus:hotpath
func (st *procState) nextOut() *wireEntry {
	if len(st.out) == cap(st.out) {
		st.out = append(st.out, wireEntry{})
	} else {
		st.out = st.out[:len(st.out)+1]
	}
	return &st.out[len(st.out)-1]
}

// processDatagram evaluates one ingress datagram through the lane and
// ships its egress: a lane batch of one.
//
//camus:hotpath bench=BenchmarkProcessDatagram
func (sw *Switch) processDatagram(st *procState, datagram []byte) {
	st.begin(time.Now())
	sw.evaluate(st, datagram)
	sw.flush(st)
}

// evaluate runs one datagram of the lane's batch into its buckets. The
// datagram's messages are one pipeline batch on the generation begin
// loaded, and the matched ones are bucketed as raw wire bytes aliasing the
// ingress buffer, which must outlive the batch's flush.
//
//camus:hotpath
func (sw *Switch) evaluate(st *procState, datagram []byte) {
	st.msgs = st.msgs[:0]
	//camus:alloc-ok the callback closure never escapes DecodeAddOrders, so it stays on the stack (oracle-verified)
	err := itch.DecodeAddOrders(datagram, &st.order, func(o *itch.AddOrder, raw []byte) {
		sw.stats.Messages.Add(1)
		st.proc.Add(o)
		st.msgs = append(st.msgs, raw)
	})
	// The prefix of a datagram that fails to decode mid-way is still
	// evaluated (and counted) exactly as the per-message path did, but
	// nothing from a bad datagram is forwarded.
	results := st.proc.Flush(st.now)
	for i := range results {
		if !results[i].Dropped {
			sw.stats.Matched.Add(1)
		}
	}
	if err != nil {
		sw.stats.DecodeErrors.Add(1)
		return
	}

	// Bucket matched messages by action: by multicast group where the
	// program assigned one, by the one output port otherwise. Either way
	// the body is serialized once for the bucket's whole member set.
	for i := range results {
		r := &results[i]
		if r.Dropped {
			continue
		}
		if r.Group >= 0 {
			sw.collect(st, 2*r.Group, r.Ports, st.msgs[i])
			continue
		}
		it := r.Ports.Iter() // a result without a group forwards to one port
		it.Next()
		sw.collect(st, 2*it.Port()+1, r.Ports, st.msgs[i])
	}
}

// flush ends a lane batch: it frames the open buckets and ships every
// frame of the batch, as many per socket call as the writer takes.
//
//camus:hotpath
func (sw *Switch) flush(st *procState) {
	if len(st.touched) > 0 {
		sw.frameOpen(st)
	}
	sw.sendEgress(st)
}

// frameGroup serializes one bucket's matched messages once into a shared
// refcounted body and claims one egress entry per member port, each
// carrying only that port's 20-byte MoldUDP64 header. The member ports'
// retransmission stores retain the shared body (one reference per
// retained message) before the datagram leaves, so recovery is served
// from the same bytes that went out and any request the send races with
// can already be served. The bucket's messages are cleared; its ports are
// kept. Callers hold sw.mu.
//
//camus:hotpath
func (sw *Switch) frameGroup(st *procState, gb *groupMsgs) {
	//camus:alloc-ok get is inlined here: a pool miss grows the working set once; the steady state recycles
	sb := sw.bodies.get(gb.size)
	st.owned = append(st.owned, sb)
	body := sb.b[:itch.MoldHeaderLen]
	for _, m := range gb.msgs {
		body = append(body, byte(len(m)>>8), byte(len(m)))
		body = append(body, m...)
	}
	sb.b = body
	n := len(gb.msgs)
	count := uint16(n)

	// Every member's ring slots are paid for with one atomic up front;
	// unbound members hand their share back after the loop. The lane's
	// own reference (held until sendEgress completes) keeps the count
	// positive throughout, so the refund can never recycle the buffer.
	ringRefs := sw.retxCap > 0
	if ringRefs {
		sb.refGroup(gb.ports.Len() * n)
	}
	ev := evictAcc{pool: sw.bodies}
	unbound := 0
	for it := gb.ports.Iter(); it.Next(); {
		port := it.Port()
		ps := sw.portFor(port)
		if ps == nil {
			// Port not bound: black-hole, like an unwired ASIC port —
			// but observable.
			unbound++
			continue
		}
		e := st.nextOut()
		ps.mu.Lock()
		ps.stamp(e.hdr[:], count)
		if ps.store != nil {
			ps.store.addSharedGroup(n, sb.h, &ev)
		}
		ps.nextSeq += uint64(count)
		ps.lastEgress = int64(st.now)
		e.addr = ps.addr
		ps.mu.Unlock()
		e.body, e.port = body, port
	}
	ev.flush()
	members := gb.ports.Len() - unbound
	if unbound > 0 {
		sw.stats.UnboundPort.Add(uint64(unbound))
		if ringRefs {
			sw.bodies.unref(sb, int32(unbound*n))
		}
	}
	if gb.ports.Len() > 1 { // the encode-once series count multicast groups only
		sw.stats.GroupEncodes.Add(1)
		sw.stats.GroupSends.Add(uint64(members))
		if members > 1 {
			sw.stats.GroupBytesSaved.Add(uint64(members-1) * uint64(len(body)-itch.MoldHeaderLen))
		}
	}
	gb.msgs = gb.msgs[:0]
	gb.size = itch.MoldHeaderLen
}

// sendEgress ships the lane's framed datagrams through the lane's writer,
// as many per call as the writer takes. Write failures are attributed to
// the destination port (camus_dataplane_port_send_errors_total{port=…}) on
// top of the global send-error counter.
//
//camus:hotpath
func (sw *Switch) sendEgress(st *procState) {
	sent, calls := 0, 0
	for i := 0; i < len(st.out); {
		k, err := st.bw.WriteBatch(st.out[i:])
		calls++
		sent += k
		i += k
		if err != nil {
			// Skip the datagram the write rejected; the rest of the
			// burst still goes out.
			sw.stats.SendErrors.Add(1)
			//camus:alloc-ok write-error path; the per-port series is created once per failing port
			sw.portSendError(st.out[i].port)
			i++
		}
	}
	st.out = st.out[:0]
	if calls > 0 {
		sw.stats.SendCalls.Add(uint64(calls))
	}
	if sent > 0 {
		sw.stats.Forwarded.Add(uint64(sent))
	}
	for j, sb := range st.owned {
		st.owned[j] = nil
		sw.bodies.unref(sb, 1)
	}
	st.owned = st.owned[:0]
}

// portSendError attributes one failed egress write to its destination
// port. The labeled series is created on a port's first error, keeping
// cardinality bounded by the set of ports that have ever failed; on a
// switch without telemetry the counters still count (detached).
func (sw *Switch) portSendError(port int) {
	sw.portErrMu.Lock()
	c, ok := sw.portErrs[port]
	if !ok {
		c = sw.tel.Reg().Counter("camus_dataplane_port_send_errors_total",
			telemetry.L("port", strconv.Itoa(port)))
		sw.portErrs[port] = c
	}
	sw.portErrMu.Unlock()
	c.Add(1)
}

// heartbeatLoop emits a MoldUDP64 heartbeat on every port that has been
// idle for at least one interval, so subscribers can detect tail loss.
// The frame buffer and the port snapshot are reused across ticks: on a
// switch with many thousands of subscribers a per-port or per-tick
// allocation here would be the only steady-state one.
func (sw *Switch) heartbeatLoop(stop <-chan struct{}) {
	tick := time.NewTicker(sw.heartbeat)
	defer tick.Stop()
	var hb [itch.MoldHeaderLen]byte
	var states []*portState
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		sw.mu.RLock()
		for _, ps := range sw.ports {
			states = append(states, ps)
		}
		sw.mu.RUnlock()
		nowNs := time.Now().UnixNano()
		for _, ps := range states {
			ps.mu.Lock()
			idle := nowNs-ps.lastEgress >= int64(sw.heartbeat)
			if idle {
				ps.stamp(hb[:], 0)
			}
			addr := ps.addr
			ps.mu.Unlock()
			if !idle {
				continue
			}
			if _, err := sw.conn.WriteToUDP(hb[:], addr); err == nil {
				sw.stats.Heartbeats.Add(1)
			}
		}
		// Forget the snapshot so an unbound port is not kept alive.
		clear(states)
		states = states[:0]
	}
}

// serveRetx answers MoldUDP64 retransmission requests from the per-port
// stores. A request for messages that have aged out is answered from the
// oldest retained sequence onward — the reply's sequence number tells the
// subscriber exactly which prefix is unrecoverable.
//
// The request socket is reachable by anything that can send a UDP
// datagram, so a request that fails to decode — or names a session this
// switch does not serve — is counted (camus_dataplane_retx_bad_total)
// and skipped; nothing a remote peer sends can terminate this loop.
func (sw *Switch) serveRetx() {
	// The request socket reads with the ingress socket's buffer size
	// (requests are tiny, but a small buffer would silently truncate an
	// oversized one).
	buf := make([]byte, readBufSize)
	// One goroutine serves every request, so one reply is reused: building
	// it under the port lock egress is waiting on costs a copy, not an
	// allocation.
	rep := retxReply{wire: make([]byte, 0, maxRetxDatagram)}
	for {
		n, raddr, err := sw.retx.ReadFromUDP(buf)
		if err != nil {
			return
		}
		var req itch.MoldRequest
		if err := req.DecodeFromBytes(buf[:n]); err != nil {
			sw.stats.RetxBad.Add(1)
			continue
		}
		sw.mu.RLock()
		ps := sw.bySession[req.Session]
		sw.mu.RUnlock()
		if ps == nil {
			sw.stats.RetxBad.Add(1)
			continue // unknown session: not our stream
		}
		sw.stats.RetxRequests.Add(1)
		sw.replyRetx(ps, &req, raddr, &rep)
	}
}

// retxReply is the reply serveRetx reuses across requests: the message
// views retxStore.get appends into (mp.Messages) and the wire bytes they
// are serialized to.
type retxReply struct {
	mp   itch.MoldPacket
	wire []byte
}

// replyRetx builds and sends one retransmission reply into rep. The reply
// wire bytes are serialized under the port lock: the store's ring slots
// are recycled by concurrent sends, so the messages must be captured
// before the lock is released.
func (sw *Switch) replyRetx(ps *portState, req *itch.MoldRequest, raddr *net.UDPAddr, rep *retxReply) {
	mp := &rep.mp
	ps.mu.Lock()
	mp.Messages = mp.Messages[:0]
	if ps.store != nil {
		mp.Messages, mp.Header.Sequence = ps.store.get(mp.Messages, req.Sequence, int(req.Count), maxRetxDatagram-itch.MoldHeaderLen)
	}
	served := len(mp.Messages)
	if served == 0 {
		// Nothing servable at or after the requested sequence: reply
		// with an empty packet whose sequence is the next one the port
		// will send, telling the subscriber the prefix is gone.
		rep.wire = rep.wire[:itch.MoldHeaderLen]
		ps.stamp(rep.wire, 0)
	} else {
		mp.Header.Session = ps.session
		rep.wire = mp.AppendTo(rep.wire)
	}
	ps.mu.Unlock()

	if _, err := sw.retx.WriteToUDP(rep.wire, raddr); err == nil && served > 0 {
		sw.stats.RetxMessages.Add(uint64(served))
	}
}

// retxStore is a bounded ring of the port's most recent egress messages,
// indexed by sequence number. Sequences are dense, so position is just
// seq modulo the ring's length. The ring is paid for by what the port has
// sent: it starts at retxInitialSlots and grows geometrically toward max
// (Config.RetxBuffer) as sequences are stored, so nothing is evicted
// before max messages are retained and binding a port costs one small
// array whatever the bound is.
//
// A slot holds its message as the handle of the refcounted shared body
// the message went out in — the reference it must drop when it moves on —
// and nothing else: where the message sits in the body follows from the
// ring. A port stores each frame whole, in consecutive slots, and never
// receives two frames from one body, and a handle is issued again only
// once no slot names it; so a run of equal handles in [lo, hi) is one
// frame, cut at most at its front by lo, and a message is as many from
// its body's end as its run goes on past it (seek). Every slot in
// [lo, hi) names a body and every other slot holds handle 0.
//
// The slot is deliberately 4 bytes: at high fanout a datagram touches
// thousands of rings, none cache-resident, so the insert cost is line
// fills and the ring's footprint sets the miss rate. Sixteen slots share
// a line. An insert writes the handle it was given and never reads the
// pool's table; evictions dereference it once per retired body
// (evictAcc). The same argument keeps the ring one flat slice: paging it
// ([]*[256]retxSlot — no copies, no garbage) puts a dependent miss in
// front of every insert (DESIGN.md §5c has the measurement).
// TestRetxSlotIsFourBytes holds it to that size.
type retxSlot struct {
	body uint32 // handle of the shared body the slot aliases (sharedPool.body)
}

// retxInitialSlots is the ring a port is bound with (256 B): enough that a
// port which sends a few datagrams never grows, small enough that ten
// thousand binds cost 2.5 MB rather than RetxBuffer x 4 B each.
//
// retxGrowth is the factor a full ring grows by. At 4 the outgrown arrays
// a port leaves to the collector sum to a third of its final ring — at 2
// they sum to all of it, and itch-fanout's 320 ports, which outgrow their
// rings together, showed that as 1 MB of peak RSS.
const (
	retxInitialSlots = 64
	retxGrowth       = 4
)

type retxStore struct {
	slots  []retxSlot
	bodies *sharedPool // names the slots' bodies
	max    int         // the bound len(slots) grows toward
	lo     uint64      // oldest retained sequence
	hi     uint64      // next sequence to be stored
}

func newRetxStore(max int, bodies *sharedPool) *retxStore {
	return &retxStore{
		slots:  make([]retxSlot, min(max, retxInitialSlots)),
		bodies: bodies,
		max:    max,
		lo:     1,
		hi:     1,
	}
}

// releaseAll empties the store, returning every shared-body reference.
// Called when the port is unbound so its ring cannot pin bodies (or serve
// stale bytes from recycled ones).
func (s *retxStore) releaseAll() {
	ev := evictAcc{pool: s.bodies}
	for i := range s.slots {
		if h := s.slots[i].body; h != 0 {
			ev.add(h)
		}
		s.slots[i] = retxSlot{}
	}
	ev.flush()
	s.lo = s.hi
}

// grow replaces the ring with the smallest retxGrowth-fold multiple of it
// that holds the retained extents plus n more (max at most), re-seating
// every retained sequence at its position in the new ring. From
// retxInitialSlots a port allocates at most ceil(log4(max/64)) rings after
// the one it was bound with — three at the default bound; each outgrown
// one is garbage.
func (s *retxStore) grow(n int) {
	need := s.hi - s.lo + uint64(n)
	size := uint64(len(s.slots))
	for size < need {
		size *= retxGrowth
	}
	size = min(size, uint64(s.max))
	slots := make([]retxSlot, size)
	old := uint64(len(s.slots))
	for seq := s.lo; seq < s.hi; seq++ {
		slots[seq%size] = s.slots[seq%old]
	}
	s.slots = slots
}

// addSharedGroup retains one frame, the n messages of the shared body
// named by handle h (references already taken via refGroup), in the next n
// slots. Evicted slots' handles are handed to ev rather than dropped here:
// every member of a group evicts slots aliasing the same earlier bodies,
// so the accumulator turns members x messages atomic drops into roughly
// one per retired body per frame. A ring below its bound grows first when
// the frame would not fit, so eviction starts only at max.
//
//camus:hotpath
func (s *retxStore) addSharedGroup(n int, h uint32, ev *evictAcc) {
	if len(s.slots) < s.max && s.hi-s.lo+uint64(n) > uint64(len(s.slots)) {
		//camus:alloc-ok the ring grows fourfold toward RetxBuffer: at most ceil(log4(max/64)) allocations in a port's life, none once len(slots) == max
		s.grow(n)
	}
	capacity := uint64(len(s.slots))
	for ; n > 0; n-- {
		sl := &s.slots[s.hi%capacity]
		if sl.body != 0 {
			ev.add(sl.body)
		}
		sl.body = h
		s.hi++
	}
	if s.hi-s.lo > capacity {
		s.lo = s.hi - capacity
	}
}

// msgLen is the length of the message whose two-byte prefix is at b[at:].
func msgLen(b []byte, at int) int { return int(b[at])<<8 | int(b[at+1]) }

// seek returns where the length prefix of message seq sits in its body b,
// named by h: the message is as many from the body's end as the run of
// slots naming h goes on past seq (bounded by hi, so no slot outside the
// retained range is read). A frame is bounded at maxRetxDatagram, so the
// two walks over the body's prefixes are short; this is the cold path.
func (s *retxStore) seek(b []byte, h uint32, seq uint64) int {
	capacity := uint64(len(s.slots))
	after := 0
	for e := seq + 1; e < s.hi && s.slots[e%capacity].body == h; e++ {
		after++
	}
	count := 0
	for at := itch.MoldHeaderLen; at < len(b); at += 2 + msgLen(b, at) {
		count++
	}
	at := itch.MoldHeaderLen
	for i := count - 1 - after; i > 0; i-- {
		at += 2 + msgLen(b, at)
	}
	return at
}

// get appends to dst up to count messages starting at the oldest retained
// sequence >= from, bounded by maxBytes of wire payload, and returns them
// with the sequence of the first. The messages alias ring-owned bodies:
// they are valid only while the caller holds the port lock. When nothing
// at or after from is retained it returns (dst, hi).
func (s *retxStore) get(dst [][]byte, from uint64, count int, maxBytes int) ([][]byte, uint64) {
	start := from
	if start < s.lo {
		start = s.lo
	}
	if start >= s.hi || count <= 0 {
		return dst, s.hi
	}
	end := from + uint64(count)
	if end < from || end > s.hi { // overflow or clamp to newest
		end = s.hi
	}
	if end <= start {
		return dst, s.hi
	}
	first := len(dst)
	bytes := 0
	var h uint32
	var b []byte
	at := 0 // the next message's length prefix in b
	for seq := start; seq < end; seq++ {
		if sl := s.slots[seq%uint64(len(s.slots))].body; sl != h { // a slot in [lo, hi) is never 0
			// A new run: the start's may be cut by lo, any later one
			// begins its frame.
			h, b = sl, s.bodies.body(sl).b
			at = itch.MoldHeaderLen
			if seq == start {
				at = s.seek(b, h, seq)
			}
		}
		n := msgLen(b, at)
		bytes += 2 + n
		if bytes > maxBytes && len(dst) > first {
			break
		}
		dst = append(dst, b[at+2:at+2+n])
		at += 2 + n
	}
	return dst, start
}
