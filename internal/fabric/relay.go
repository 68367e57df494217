package fabric

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"camus/internal/dataplane"
	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/telemetry"
)

// RelayConfig configures one inter-switch link endpoint.
type RelayConfig struct {
	// Name identifies the link in telemetry labels ("up0", "dn0-1").
	Name string
	// Retx is the upstream switch's retransmission-request address; the
	// relay recovers link loss through it like any MoldUDP64 subscriber.
	Retx string
	// Dest is the downstream switch's ingress address the recovered,
	// in-order stream is republished to. SetDest retargets it live — the
	// fabric's reroute primitive.
	Dest *net.UDPAddr
	// Faults, when enabled, is the link's chaos plan, applied to both
	// directions of the link socket (stream data in, retransmission
	// requests out) with independently derived seeds. The republish leg
	// toward the downstream ingress is clean: the relay is the
	// loss-recovery boundary of the link it terminates.
	Faults faults.Plan
	// RequestTimeout is the initial retransmission timeout (default the
	// Receiver's 20ms).
	RequestTimeout time.Duration
	Telemetry      *telemetry.Telemetry
}

// Relay terminates one inter-switch link: it is a gap-recovering
// MoldUDP64 receiver on the upstream switch's egress port, and it
// republishes every message — exactly once, in upstream egress order —
// into the downstream switch's ingress under its own session. Each hop
// therefore recovers its own loss locally instead of compounding it
// across the fabric, and a reroute is one atomic destination swap: the
// downstream ingress does not interpret relay sequencing, so switching
// spines mid-stream needs no sequence handshake.
type Relay struct {
	rcv  *dataplane.Receiver
	out  *net.UDPConn
	dst  atomic.Pointer[net.UDPAddr]
	down atomic.Bool // severed: drop instead of republishing (link dead)

	sess [10]byte
	seq  uint64 // republish sequence (Run goroutine only)
	pkt  itch.MoldPacket
	buf  []byte

	forwarded atomic.Uint64
	fwdCtr    *telemetry.Counter
	lostCtr   *telemetry.Counter
}

// NewRelay binds the link socket and the clean republish socket.
func NewRelay(cfg RelayConfig) (*Relay, error) {
	r := &Relay{}
	r.pkt.Header.SetSession("RLY" + cfg.Name)
	r.sess = r.pkt.Header.Session
	r.dst.Store(cfg.Dest)
	if reg := cfg.Telemetry.Reg(); reg != nil {
		r.fwdCtr = reg.Counter("camus_fabric_relay_forwarded_total", telemetry.L("link", cfg.Name))
		r.lostCtr = reg.Counter("camus_fabric_relay_gap_lost_total", telemetry.L("link", cfg.Name))
	}

	out, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("fabric: relay %s republish socket: %w", cfg.Name, err)
	}
	r.out = out

	var wrap func(dataplane.Conn) dataplane.Conn
	if cfg.Faults.Enabled() {
		in, eg := cfg.Faults, cfg.Faults
		eg.Seed = in.Seed + 1
		wrap = func(c dataplane.Conn) dataplane.Conn {
			return faults.WrapConn(c, &in, &eg)
		}
	}
	r.rcv, err = dataplane.NewReceiver(dataplane.ReceiverConfig{
		Retx:           cfg.Retx,
		RequestTimeout: cfg.RequestTimeout,
		Seed:           cfg.Faults.Seed + 7,
		WrapConn:       wrap,
		Telemetry:      cfg.Telemetry,
		OnMessage:      r.forward,
		OnGap:          func(from, to uint64) { r.lostCtr.Add(to - from) },
	})
	if err != nil {
		out.Close()
		return nil, err
	}
	return r, nil
}

// Addr is the link endpoint; the upstream switch binds its egress port to
// it.
func (r *Relay) Addr() *net.UDPAddr { return r.rcv.Addr() }

// SetDest retargets the republish destination and revives a severed
// relay: rerouting a leaf's uplink onto a healthy spine is exactly this.
func (r *Relay) SetDest(addr *net.UDPAddr) {
	r.dst.Store(addr)
	r.down.Store(false)
}

// Sever makes the relay drop everything it recovers, so nothing crosses a
// failed link even while its stream still arrives. It does not silence
// the link: the fabric judges liveness by what the relay hears, not by
// what it forwards. SetDest undoes it.
func (r *Relay) Sever() { r.down.Store(true) }

// Forwarded is how many messages crossed the link exactly once.
func (r *Relay) Forwarded() uint64 { return r.forwarded.Load() }

// Recovered is how many messages the link receiver repaired through the
// upstream retransmission channel.
func (r *Relay) Recovered() uint64 { return r.rcv.Metric("camus_receiver_recovered_total") }

// Run drives the link until ctx is canceled, the socket closes, or the
// upstream announces end-of-session.
func (r *Relay) Run(ctx context.Context) error { return r.rcv.Run(ctx) }

// Close releases both sockets.
func (r *Relay) Close() {
	r.rcv.Close()
	r.out.Close()
}

// forward republishes one recovered in-order message downstream. Each
// message travels alone in a fresh MoldUDP64 frame under the relay's own
// session; the downstream ingress evaluates messages positionally and
// ignores the header, so relay framing never aliases upstream sequencing.
//
//camus:hotpath
func (r *Relay) forward(_ uint64, msg []byte) {
	if r.down.Load() {
		return
	}
	dst := r.dst.Load()
	if dst == nil {
		return
	}
	r.seq++
	r.pkt.Header.Session = r.sess
	r.pkt.Header.Sequence = r.seq
	r.pkt.Messages = r.pkt.Messages[:0]
	r.pkt.Append(msg)
	r.buf = r.pkt.AppendTo(r.buf)
	if _, err := r.out.WriteToUDP(r.buf, dst); err != nil {
		return
	}
	r.forwarded.Add(1)
	r.fwdCtr.Inc()
}
