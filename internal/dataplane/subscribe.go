package dataplane

import (
	"fmt"
	"net"

	"camus/internal/lang"
	"camus/internal/telemetry"
)

// SubscriberConfig describes one subscriber endpoint to attach to a
// switch output port.
type SubscriberConfig struct {
	// Port is the Camus output port the compiled program forwards to
	// (the fwd() target in the rule language).
	Port int
	// Addr is the subscriber's UDP endpoint.
	Addr string
	// Group is an optional operator-assigned cohort label ("host",
	// "downlink", a tenant name, …). It has no forwarding semantics —
	// multicast fanout groups are derived from the compiled program, not
	// from this — but it is carried on the Subscription and drives the
	// camus_dataplane_subscribers{group=…} occupancy gauge.
	Group string
}

// Subscription is the handle for one bound subscriber endpoint. It is
// returned by Switch.Subscribe and owns the port binding until Close (or
// until a later Subscribe for the same port takes the binding over).
type Subscription struct {
	sw    *Switch
	port  int
	group string
}

// Subscribe attaches a subscriber endpoint to a switch output port and
// returns the owning handle. Safe to call while Run is active.
// Subscribing a port that is already bound redirects its stream to the
// new address without resetting the MoldUDP64 sequence space (the
// subscriber-facing session identity is the port's, not the handle's);
// the new handle takes over ownership and the previous handle's Close
// becomes a no-op. A port whose session id is already held by another
// bound port (possible only under a custom Config.Session; see
// sessionFor) is refused: two ports never share a retransmission stream.
// So is a port outside [0, lang.MaxPort], which no fwd() can name.
func (sw *Switch) Subscribe(cfg SubscriberConfig) (*Subscription, error) {
	if cfg.Port < 0 || cfg.Port > lang.MaxPort {
		return nil, fmt.Errorf("dataplane: port %d out of range [0, %d]", cfg.Port, lang.MaxPort)
	}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("dataplane: port %d: %w", cfg.Port, err)
	}
	sub := &Subscription{sw: sw, port: cfg.Port, group: cfg.Group}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if ps, ok := sw.ports[cfg.Port]; ok {
		ps.mu.Lock()
		ps.addr = udpAddr
		ps.mu.Unlock()
		sw.countSubscriber(ps.group, -1)
		ps.group = cfg.Group
		ps.sub = sub
		sw.countSubscriber(cfg.Group, +1)
		return sub, nil
	}
	ps := &portState{port: cfg.Port, addr: udpAddr, nextSeq: 1, sub: sub, group: cfg.Group}
	sessionFor(&ps.session, sw.session, cfg.Port)
	if other, ok := sw.bySession[ps.session]; ok {
		return nil, fmt.Errorf("dataplane: port %d: session %q already belongs to port %d", cfg.Port, ps.session[:], other.port)
	}
	if sw.retxCap > 0 {
		ps.store = newRetxStore(sw.retxCap, sw.bodies)
	}
	sw.ports[cfg.Port] = ps
	sw.bySession[ps.session] = ps
	if n := cfg.Port + 1 - len(sw.portIdx); n > 0 {
		sw.portIdx = append(sw.portIdx, make([]*portState, n)...)
	}
	sw.portIdx[cfg.Port] = ps
	sw.portsG.Set(int64(len(sw.ports)))
	sw.countSubscriber(cfg.Group, +1)
	return sub, nil
}

// countSubscriber moves the per-group occupancy gauge. Callers hold
// sw.mu.
func (sw *Switch) countSubscriber(group string, delta int) {
	n := sw.subCounts[group] + delta
	if n <= 0 {
		delete(sw.subCounts, group)
		n = 0
	} else {
		sw.subCounts[group] = n
	}
	if reg := sw.tel.Reg(); reg != nil {
		reg.Gauge("camus_dataplane_subscribers", telemetry.L("group", group)).Set(int64(n))
	}
}

// unbind detaches owner's port, but only if owner still owns the binding
// — the race-free semantics of Subscription.Close under concurrent
// rebinds. The port's retransmission store releases its shared-body
// references — every slot holds one — so recycled buffers cannot be
// pinned (or served stale) by a dead port.
func (sw *Switch) unbind(owner *Subscription) {
	port := owner.port
	sw.mu.Lock()
	defer sw.mu.Unlock()
	ps, ok := sw.ports[port]
	if !ok || ps.sub != owner {
		return
	}
	delete(sw.ports, port)
	delete(sw.bySession, ps.session)
	sw.portIdx[port] = nil
	sw.portsG.Set(int64(len(sw.ports)))
	sw.countSubscriber(ps.group, -1)
	ps.mu.Lock()
	if ps.store != nil {
		ps.store.releaseAll()
	}
	ps.mu.Unlock()
}

// Port returns the switch output port the subscription is attached to.
func (s *Subscription) Port() int { return s.port }

// Group returns the operator-assigned cohort label.
func (s *Subscription) Group() string { return s.group }

// Session returns the MoldUDP64 session identity of the subscription's
// port.
func (s *Subscription) Session() string { return s.sw.PortSession(s.port) }

// Close detaches the subscriber: subsequent matches for the port are
// dropped instead of sent, its MoldUDP64 session and retransmission
// store are discarded, and its session stops answering retransmission
// requests. Safe to call while Run is active, idempotent, and a no-op if
// a later Subscribe already took the port over. A later Subscribe of the
// same port starts a fresh sequence space. This is how a fabric spine
// stops forwarding toward a leaf it has declared dead.
func (s *Subscription) Close() error {
	s.sw.unbind(s)
	return nil
}
