package netsim

import (
	"time"

	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/nethdr"
)

// Packet is one MoldUDP64 datagram in flight: the add-orders it carries
// and the time its publisher put it on the wire, which every latency is
// measured from.
type Packet struct {
	At     time.Duration
	Orders []itch.AddOrder
}

// Bytes is the datagram's size on the wire.
func (p Packet) Bytes() int { return packetBytes(len(p.Orders)) }

// packetBytes is the wire size of a Mold datagram with n add-orders.
func packetBytes(n int) int {
	return nethdr.EthernetLen + nethdr.IPv4MinLen + nethdr.UDPLen +
		itch.MoldHeaderLen + n*(2+itch.AddOrderLen)
}

// Node is the far end of a link: a Host or a Switch.
type Node interface{ Receive(Packet) }

// LinkStats is one link's ledger. Offered counts packets handed to Send
// and Delivered those that reached the far node; a lossy link keeps
// Offered == Delivered + Dropped - Duplicated, a recovering one
// Offered == Delivered.
type LinkStats struct {
	Offered, Delivered uint64
	Msgs, Bytes        int // messages and wire bytes offered

	Dropped    uint64 // lost for good (lossy policy)
	Recovered  uint64 // dropped, then redelivered (recovering policy)
	Duplicated uint64
	Reordered  uint64
	Delayed    uint64
	RetxBytes  int // wire bytes a recovering link spent on retransmits and duplicates
}

// Link is a point-to-point link toward one node: store-and-forward
// serialization at the link rate (shared, so back-to-back packets queue)
// plus a fixed propagation delay. Armed with a faults.Plan it misbehaves
// deterministically — the same plan over the same traffic produces the
// same faults at the same simulated times — under one of two policies,
// Lossy or Recovering.
type Link struct {
	sim         *Sim
	server      *Server
	bitsPerSec  float64
	propagation time.Duration
	to          Node

	inj        *faults.Injector // nil: a clean link
	recovering bool
	recovery   time.Duration // gap-detect + request + retransmit round trip

	// A lossy link holds one reordered packet back to swap with the next
	// send; a timed release bounds the hold so a tail packet is never
	// stranded.
	held    func()
	heldGen uint64

	Stats LinkStats
}

// reorderHold bounds how long a reordered packet waits: for a successor
// on a lossy link, in the resequencing buffer on a recovering one.
const reorderHold = 10 * time.Microsecond

// NewLink creates a clean link to a node with the given rate and
// propagation delay.
func NewLink(sim *Sim, gbps float64, propagation time.Duration, to Node) *Link {
	return &Link{sim: sim, server: NewServer(sim), bitsPerSec: gbps * 1e9, propagation: propagation, to: to}
}

// Lossy arms the link with plan under the lossy policy — a dropped packet
// is gone, a duplicate arrives twice, a reordered packet arrives behind
// its successor — and returns the link. The injector is seeded
// plan.Seed+seed so the links of one topology fail independently; a nil
// or empty plan leaves the link clean.
func (l *Link) Lossy(plan *faults.Plan, seed int64) *Link {
	if plan != nil && plan.Enabled() {
		p := *plan
		p.Seed += seed
		l.inj = faults.NewInjector(p)
	}
	return l
}

// Recovering arms the link like Lossy but models a MoldUDP64
// gap-recovering receiver at the far end (the live fabric's relay): every
// packet is delivered exactly once, and faults cost time and wire bytes
// instead. A dropped packet is redelivered one recovery round trip later,
// a duplicate burns bandwidth and is discarded, a reordered packet waits
// in the resequencing buffer.
func (l *Link) Recovering(plan *faults.Plan, seed int64, recovery time.Duration) *Link {
	l.recovering, l.recovery = true, recovery
	return l.Lossy(plan, seed)
}

// SerializationDelay returns the wire time of a packet of n bytes.
func (l *Link) SerializationDelay(bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / l.bitsPerSec * float64(time.Second))
}

// Send offers p to the link; the far node receives it as the link's fault
// policy allows.
func (l *Link) Send(p Packet) {
	l.Stats.Msgs += len(p.Orders)
	l.carry(p.Bytes(), func() { l.to.Receive(p) })
}

// carry is Send for a bare byte count: deliver runs at the far end, zero,
// one or two times under the lossy policy and exactly once otherwise.
func (l *Link) carry(bytes int, deliver func()) {
	l.Stats.Offered++
	l.Stats.Bytes += bytes
	arrive := func() {
		l.Stats.Delivered++
		deliver()
	}
	switch {
	case l.inj == nil:
		l.transmit(bytes, arrive)
	case l.recovering:
		l.carryRecovering(l.inj.Next(), bytes, arrive)
	default:
		l.carryLossy(l.inj.Next(), bytes, arrive)
	}
}

// transmit serializes one packet and runs arrive after the propagation
// delay.
func (l *Link) transmit(bytes int, arrive func()) {
	l.server.Submit(l.SerializationDelay(bytes), func() { l.sim.After(l.propagation, arrive) })
}

func (l *Link) carryLossy(d faults.Decision, bytes int, arrive func()) {
	switch {
	case d.Drop:
		l.Stats.Dropped++
		return
	case d.Reorder && l.held == nil:
		// Hold this packet; the next send (or the timed release) lets it
		// go, so it arrives behind its successor.
		l.Stats.Reordered++
		l.held = func() { l.transmit(bytes, arrive) }
		l.heldGen++
		gen := l.heldGen
		l.sim.After(reorderHold, func() {
			if l.held != nil && l.heldGen == gen {
				l.releaseHeld()
			}
		})
		return
	case d.Delay:
		l.Stats.Delayed++
		l.transmit(bytes, func() { l.sim.After(l.inj.DelayBy(), arrive) })
	case d.Duplicate:
		l.Stats.Duplicated++
		l.transmit(bytes, arrive)
		l.transmit(bytes, arrive)
	default:
		l.transmit(bytes, arrive)
	}
	if l.held != nil {
		l.releaseHeld()
	}
}

func (l *Link) releaseHeld() {
	h := l.held
	l.held = nil
	h()
}

func (l *Link) carryRecovering(d faults.Decision, bytes int, arrive func()) {
	switch {
	case d.Drop:
		// The original serializes and dies on the wire; the receiver
		// notices the sequence gap and the retransmission traverses the
		// link again one recovery round trip later.
		l.Stats.Recovered++
		l.Stats.RetxBytes += bytes
		l.transmit(bytes, func() {})
		l.sim.After(l.recovery, func() { l.transmit(bytes, arrive) })
	case d.Duplicate:
		// Both copies burn wire time; the far end's sequence numbers
		// deduplicate, so arrive fires once.
		l.Stats.Duplicated++
		l.Stats.RetxBytes += bytes
		l.transmit(bytes, arrive)
		l.transmit(bytes, func() {})
	case d.Reorder:
		l.Stats.Reordered++
		l.transmit(bytes, func() { l.sim.After(reorderHold, arrive) })
	case d.Delay:
		l.Stats.Delayed++
		l.transmit(bytes, func() { l.sim.After(l.inj.DelayBy(), arrive) })
	default:
		l.transmit(bytes, arrive)
	}
}

// Total sums the ledgers of several links (all uplinks, all host links).
func Total(links []*Link) LinkStats {
	var t LinkStats
	for _, l := range links {
		s := l.Stats
		t.Offered += s.Offered
		t.Delivered += s.Delivered
		t.Msgs += s.Msgs
		t.Bytes += s.Bytes
		t.Dropped += s.Dropped
		t.Recovered += s.Recovered
		t.Duplicated += s.Duplicated
		t.Reordered += s.Reordered
		t.Delayed += s.Delayed
		t.RetxBytes += s.RetxBytes
	}
	return t
}
