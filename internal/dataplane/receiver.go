package dataplane

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"camus/internal/itch"
	"camus/internal/telemetry"
)

// receiverStats count the subscriber side of the recovery protocol.
//
// The fields are telemetry.Counter values: when the receiver is created
// with ReceiverConfig.Telemetry they are registered in the shared
// registry (as camus_receiver_*_total) and this struct is a view over
// it. Out-of-package readers go through Receiver.Metric or a telemetry
// Snapshot.
type receiverStats struct {
	Datagrams    telemetry.Counter // datagrams received (data + control)
	Delivered    telemetry.Counter // messages handed to OnMessage, in order
	Duplicates   telemetry.Counter // already-delivered messages discarded
	Heartbeats   telemetry.Counter // heartbeats observed
	Requests     telemetry.Counter // retransmission requests sent
	Recovered    telemetry.Counter // messages delivered from retransmissions
	GapsLost     telemetry.Counter // messages declared unrecoverable
	DecodeErrors telemetry.Counter
}

// register adopts every counter into reg under its canonical series name.
func (s *receiverStats) register(reg *telemetry.Registry) {
	reg.RegisterCounter("camus_receiver_datagrams_total", &s.Datagrams)
	reg.RegisterCounter("camus_receiver_delivered_total", &s.Delivered)
	reg.RegisterCounter("camus_receiver_duplicates_total", &s.Duplicates)
	reg.RegisterCounter("camus_receiver_heartbeats_total", &s.Heartbeats)
	reg.RegisterCounter("camus_receiver_requests_total", &s.Requests)
	reg.RegisterCounter("camus_receiver_recovered_total", &s.Recovered)
	reg.RegisterCounter("camus_receiver_gaps_lost_total", &s.GapsLost)
	reg.RegisterCounter("camus_receiver_decode_errors_total", &s.DecodeErrors)
}

// A gap's retransmission request is retried up to maxRequestRetries
// times, its timeout doubling per retry up to maxRequestBackoff, before
// the gap is declared lost.
const (
	maxRequestRetries = 8
	maxRequestBackoff = time.Second
)

// ReceiverConfig configures a gap-recovering MoldUDP64 subscriber.
type ReceiverConfig struct {
	// Listen is the UDP address to receive the stream on (empty chooses
	// a random localhost port). Bind the switch port to Receiver.Addr().
	Listen string
	// Retx is the switch's retransmission-request address. Empty
	// disables recovery: gaps are declared lost after RequestTimeout.
	Retx string
	// RequestTimeout is the initial retransmission-request timeout
	// (default 20ms). Each retry doubles it, up to 1s, with jitter.
	RequestTimeout time.Duration
	// Seed drives the retry jitter (0 behaves like 1).
	Seed int64
	// WrapConn, when non-nil, wraps the subscriber socket — the
	// fault-injection hook.
	WrapConn func(Conn) Conn
	// Telemetry, when non-nil, receives the recovery counters
	// (camus_receiver_*_total) and an end-to-end delivery-latency
	// histogram fed by Observe-capable callers.
	Telemetry *telemetry.Telemetry

	// OnMessage receives every stream message exactly once, in sequence
	// order with no gaps (unless OnGap reported the missing range).
	OnMessage func(seq uint64, msg []byte)
	// OnGap reports that messages [from, to) are unrecoverable (the
	// store aged out or the request channel left all 8 retries unanswered).
	OnGap func(from, to uint64)
	// OnEndOfSession fires when the stream's end-of-session announcement
	// has been reached with no gap outstanding; Run then returns.
	OnEndOfSession func()
}

// Receiver is a subscriber endpoint that turns the lossy UDP stream back
// into an ordered, gap-free message sequence using the MoldUDP64
// retransmission protocol: it detects sequence gaps (including tail loss,
// via heartbeats), requests missing ranges with exponential backoff and
// jitter, and surfaces an explicit gap-lost event when the switch's store
// no longer covers the range.
type Receiver struct {
	conn     Conn
	retxAddr *net.UDPAddr
	cfg      ReceiverConfig
	rng      *rand.Rand
	stats    receiverStats

	// Stream state (owned by Run's goroutine; NextSeq reads next from any).
	next      atomic.Uint64 // next sequence to deliver
	highest   uint64        // one past the highest sequence known to exist
	pending   map[uint64][]byte
	sess      [10]byte
	sessKnown bool
	eosSeq    uint64
	eosSeen   bool

	// Recovery state machine.
	inFlight   bool
	reqSeq     uint64
	retries    int
	curTimeout time.Duration
	deadline   time.Time
}

// NewReceiver binds the subscriber socket.
func NewReceiver(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.OnMessage == nil {
		return nil, errors.New("dataplane: ReceiverConfig.OnMessage is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 20 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	addr := cfg.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dataplane: receiver listen: %w", err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("dataplane: receiver listen: %w", err)
	}
	r := &Receiver{
		conn:       conn,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		highest:    1,
		pending:    make(map[uint64][]byte),
		curTimeout: cfg.RequestTimeout,
	}
	r.next.Store(1) // a per-port re-sequenced stream starts at 1
	if reg := cfg.Telemetry.Reg(); reg != nil {
		r.stats.register(reg)
	}
	if cfg.Retx != "" {
		r.retxAddr, err = net.ResolveUDPAddr("udp", cfg.Retx)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("dataplane: receiver retx: %w", err)
		}
	}
	if cfg.WrapConn != nil {
		r.conn = cfg.WrapConn(r.conn)
	}
	return r, nil
}

// Addr returns the address the switch port should be bound to.
func (r *Receiver) Addr() *net.UDPAddr { return r.conn.LocalAddr().(*net.UDPAddr) }

// Metric returns the live value of one of the receiver's canonical
// counter series by its registry name (for example
// "camus_receiver_delivered_total"), whether or not the receiver was
// created with Telemetry. Unknown names return 0. This replaces the
// removed Stats() struct view.
func (r *Receiver) Metric(name string) uint64 {
	switch name {
	case "camus_receiver_datagrams_total":
		return r.stats.Datagrams.Load()
	case "camus_receiver_delivered_total":
		return r.stats.Delivered.Load()
	case "camus_receiver_duplicates_total":
		return r.stats.Duplicates.Load()
	case "camus_receiver_heartbeats_total":
		return r.stats.Heartbeats.Load()
	case "camus_receiver_requests_total":
		return r.stats.Requests.Load()
	case "camus_receiver_recovered_total":
		return r.stats.Recovered.Load()
	case "camus_receiver_gaps_lost_total":
		return r.stats.GapsLost.Load()
	case "camus_receiver_decode_errors_total":
		return r.stats.DecodeErrors.Load()
	}
	return 0
}

// Close shuts the subscriber socket, unblocking Run.
func (r *Receiver) Close() error { return r.conn.Close() }

// NextSeq returns the next sequence number the receiver expects; all
// earlier messages have been delivered or declared lost.
func (r *Receiver) NextSeq() uint64 { return r.next.Load() }

// Run drives the receive/recover loop until ctx is canceled, the socket
// is closed, or end-of-session is reached with nothing outstanding.
func (r *Receiver) Run(ctx context.Context) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			r.conn.Close()
		case <-stop:
		}
	}()

	buf := make([]byte, readBufSize)
	for {
		if r.eosSeen && r.next.Load() >= r.eosSeq {
			if r.cfg.OnEndOfSession != nil {
				r.cfg.OnEndOfSession()
			}
			return nil
		}
		r.scheduleRecovery()

		wait := 100 * time.Millisecond
		if r.inFlight {
			if until := time.Until(r.deadline); until < wait {
				wait = until
			}
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
		}
		r.conn.SetReadDeadline(time.Now().Add(wait))
		n, raddr, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				r.onTimeout()
				continue
			}
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("dataplane: receiver read: %w", err)
		}
		r.handle(buf[:n], raddr)
	}
}

// scheduleRecovery sends a retransmission request when a gap is open and
// none is in flight.
func (r *Receiver) scheduleRecovery() {
	next := r.next.Load()
	if r.highest <= next {
		// Fully caught up: reset the recovery machine.
		r.inFlight = false
		r.retries = 0
		r.curTimeout = r.cfg.RequestTimeout
		return
	}
	if r.inFlight {
		return
	}
	r.sendRequest(next)
	r.inFlight = true
	r.reqSeq = next
	r.deadline = time.Now().Add(r.jittered(r.curTimeout))
}

// sendRequest asks the switch for the open gap (no-op without a
// retransmission channel or before the session id is learned; the
// timeout machinery still runs so the gap is eventually declared lost).
func (r *Receiver) sendRequest(next uint64) {
	if r.retxAddr == nil || !r.sessKnown {
		return
	}
	gap := r.highest - next
	if gap > 65535 {
		gap = 65535
	}
	req := itch.MoldRequest{Session: r.sess, Sequence: next, Count: uint16(gap)}
	if _, err := r.conn.WriteToUDP(req.Bytes(), r.retxAddr); err == nil {
		r.stats.Requests.Add(1)
	}
}

// jittered adds uniform jitter of up to a quarter of d.
func (r *Receiver) jittered(d time.Duration) time.Duration {
	return d + time.Duration(r.rng.Int63n(int64(d)/4+1))
}

// onTimeout advances the recovery state machine after a read deadline.
func (r *Receiver) onTimeout() {
	if !r.inFlight || time.Now().Before(r.deadline) {
		return
	}
	r.retries++
	if r.retries > maxRequestRetries {
		// The request channel is not answering: declare the gap up to
		// the first buffered (or known) sequence unrecoverable and move
		// on rather than hanging.
		r.advanceTo(r.lowestKnown())
		r.inFlight = false
		r.retries = 0
		r.curTimeout = r.cfg.RequestTimeout
		return
	}
	r.curTimeout = min(2*r.curTimeout, maxRequestBackoff)
	r.inFlight = false // scheduleRecovery resends with the longer timeout
}

// lowestKnown returns the lowest sequence at or after next that the
// receiver has evidence for: a buffered message, or the stream frontier.
func (r *Receiver) lowestKnown() uint64 {
	next := r.next.Load()
	low := r.highest
	for seq := range r.pending {
		if seq > next && seq < low {
			low = seq
		}
	}
	return low
}

// handle processes one datagram.
func (r *Receiver) handle(data []byte, raddr *net.UDPAddr) {
	r.stats.Datagrams.Add(1)
	var mp itch.MoldPacket
	if err := mp.Decode(data); err != nil {
		r.stats.DecodeErrors.Add(1)
		return
	}
	if !r.sessKnown {
		r.sess = mp.Header.Session
		r.sessKnown = true
	} else if mp.Header.Session != r.sess {
		return // foreign stream
	}

	seq := mp.Header.Sequence
	next := r.next.Load()

	if mp.Header.IsEndOfSession() {
		r.eosSeq = seq
		r.eosSeen = true
		if seq > r.highest {
			r.highest = seq
		}
		return
	}
	fromRetx := r.retxAddr != nil && raddr != nil &&
		raddr.Port == r.retxAddr.Port && raddr.IP.Equal(r.retxAddr.IP)
	if fromRetx && seq > next {
		// The store starts after what we asked for: the prefix
		// [next, seq) has aged out and is unrecoverable.
		r.advanceTo(seq)
		next = r.next.Load()
	}
	if mp.Header.IsHeartbeat() {
		r.stats.Heartbeats.Add(1)
		if seq > r.highest {
			r.highest = seq
		}
		return
	}

	// Data: stash undelivered messages, then drain in order.
	progress := false
	for i, m := range mp.Messages {
		s := seq + uint64(i)
		if s < next {
			r.stats.Duplicates.Add(1)
			continue
		}
		if _, dup := r.pending[s]; !dup {
			r.pending[s] = append([]byte(nil), m...)
			progress = true
		}
	}
	if end := seq + uint64(len(mp.Messages)); end > r.highest {
		r.highest = end
	}
	if fromRetx && progress {
		r.stats.Recovered.Add(uint64(len(mp.Messages)))
	}
	if r.drain() || progress {
		// New data arrived: restart recovery fresh for any remaining gap.
		r.inFlight = false
		r.retries = 0
		r.curTimeout = r.cfg.RequestTimeout
	}
}

// drain delivers buffered messages while the sequence stays dense.
func (r *Receiver) drain() bool {
	next := r.next.Load()
	progressed := false
	for {
		m, ok := r.pending[next]
		if !ok {
			break
		}
		delete(r.pending, next)
		r.cfg.OnMessage(next, m)
		r.stats.Delivered.Add(1)
		next++
		progressed = true
	}
	r.next.Store(next)
	return progressed
}

// advanceTo moves the delivery frontier to bound, delivering buffered
// messages where present and reporting each contiguous missing range as
// lost.
func (r *Receiver) advanceTo(bound uint64) {
	next := r.next.Load()
	for next < bound {
		if m, ok := r.pending[next]; ok {
			delete(r.pending, next)
			r.cfg.OnMessage(next, m)
			r.stats.Delivered.Add(1)
			next++
			continue
		}
		lostFrom := next
		for next < bound {
			if _, ok := r.pending[next]; ok {
				break
			}
			next++
		}
		r.stats.GapsLost.Add(next - lostFrom)
		if r.cfg.OnGap != nil {
			r.cfg.OnGap(lostFrom, next)
		}
	}
	r.next.Store(next)
	r.drain()
}
