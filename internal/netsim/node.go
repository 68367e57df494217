package netsim

import (
	"fmt"
	"time"

	"camus/internal/itch"
	"camus/internal/pipeline"
	"camus/internal/stats"
	"camus/internal/workload"
)

// HostConfig models the subscriber server (the paper's DPDK receiver on a
// Xeon E5-2620 v4 with 25G NICs).
type HostConfig struct {
	NICGbps        float64       // receive link rate
	PerPacketCost  time.Duration // poll-mode driver + header parse per datagram
	PerMessageCost time.Duration // ITCH parse + symbol compare per message
}

// DefaultHostConfig approximates a tuned DPDK receive loop.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		NICGbps:        25,
		PerPacketCost:  120 * time.Nanosecond,
		PerMessageCost: 150 * time.Nanosecond,
	}
}

// Propagation is the one-way fiber+transceiver delay of every hop in the
// testbed; RecoveryDelay is one gap-request round trip across such a hop.
const (
	Propagation   = 250 * time.Nanosecond
	RecoveryDelay = 20 * time.Microsecond
)

// Host is a subscriber server: arriving datagrams queue for one CPU core
// that pays a per-packet and a per-message cost, which is where the
// baseline's tail latency comes from when feed microbursts exceed the
// service rate.
type Host struct {
	sim    *Sim
	cfg    HostConfig
	cpu    *Server
	target string

	// Latency is publisher→application: of each message carrying the
	// target symbol when the host has one, else of each datagram.
	Latency *stats.Dist
	Msgs    int // processed by the application
}

// Receive implements Node.
func (h *Host) Receive(p Packet) {
	cost := h.cfg.PerPacketCost + time.Duration(len(p.Orders))*h.cfg.PerMessageCost
	h.cpu.Submit(cost, func() {
		h.Msgs += len(p.Orders)
		if h.target == "" {
			h.Latency.Add(h.sim.Now() - p.At)
			return
		}
		for i := range p.Orders {
			if p.Orders[i].StockSymbol() == h.target {
				h.Latency.Add(h.sim.Now() - p.At)
			}
		}
	})
}

// MaxQueue is the CPU queue's high-water mark, in datagrams.
func (h *Host) MaxQueue() int { return h.cpu.MaxQueue() }

// SwitchStats is one switch node's ledger, in messages:
// In == Forwarded + Filtered + Unwired.
type SwitchStats struct {
	In        int
	Forwarded int // left on at least one link
	Filtered  int // matched no rule, or a drop
	Unwired   int // matched only ports with no link

	// Encode-once accounting, mirroring the dataplane's multicast egress:
	// each compiled multicast group's body is serialized once per datagram
	// (GroupEncodes) and fanned out to every wired member (GroupSends), so
	// SharedBytesSaved of serialization work never happens compared to
	// encoding per subscriber. Zero when flooding and when the program has
	// no multi-port action.
	GroupEncodes, GroupSends, SharedBytesSaved int
}

// Switch is a switch node around the real pipeline: after the ASIC's
// fixed latency a datagram's messages are evaluated as one batch under
// the program installed on the pipeline.Switch (whoever installed it),
// and each out-port's matches leave as one datagram on that port's link.
// A flooding switch skips the evaluation and copies every datagram to
// every wired port — the paper's baseline.
type Switch struct {
	sim   *Sim
	sw    *pipeline.Switch
	ex    *itch.Extractor
	flood bool
	out   map[int]*Link
	ports []int // wired ports, in wiring order

	vals [][]uint64 // evaluation scratch, recycled across datagrams
	nows []time.Duration
	outs []pipeline.Result

	Stats SwitchStats
	// UnwiredPorts counts, per out-port that has no link, the messages the
	// program forwarded there.
	UnwiredPorts map[int]int
}

// Wire attaches l to out-port port and returns it.
func (n *Switch) Wire(port int, l *Link) *Link {
	n.out[port] = l
	n.ports = append(n.ports, port)
	return l
}

// Receive implements Node.
func (n *Switch) Receive(p Packet) {
	n.sim.After(n.sw.Latency(), func() {
		n.Stats.In += len(p.Orders)
		if n.flood {
			n.Stats.Forwarded += len(p.Orders)
			for _, port := range n.ports {
				n.out[port].Send(p)
			}
			return
		}
		perPort := make(map[int][]itch.AddOrder)
		type groupUse struct{ msgs, members int }
		groups := make(map[int]groupUse)
		for i, r := range n.evaluate(p.Orders) {
			if r.Dropped || len(r.Ports) == 0 {
				n.Stats.Filtered++
				continue
			}
			wired := 0
			for _, port := range r.Ports {
				if n.out[port] == nil {
					n.UnwiredPorts[port]++
					continue
				}
				wired++
				perPort[port] = append(perPort[port], p.Orders[i])
			}
			if wired == 0 {
				n.Stats.Unwired++
				continue
			}
			n.Stats.Forwarded++
			if r.Group >= 0 {
				groups[r.Group] = groupUse{groups[r.Group].msgs + 1, wired}
			}
		}
		for _, g := range groups {
			n.Stats.GroupEncodes++
			n.Stats.GroupSends += g.members
			n.Stats.SharedBytesSaved += (g.members - 1) * (packetBytes(g.msgs) - itch.MoldHeaderLen)
		}
		for _, port := range n.ports {
			if msgs := perPort[port]; len(msgs) > 0 {
				n.out[port].Send(Packet{At: p.At, Orders: msgs})
			}
		}
	})
}

// evaluate extracts every order's field values and runs them through one
// ProcessBatch call — the datagram's messages traverse the pipeline under
// a single program version, as on the ASIC. The results are reused on the
// next call.
func (n *Switch) evaluate(orders []itch.AddOrder) []pipeline.Result {
	k := len(orders)
	for len(n.vals) < k {
		n.vals = append(n.vals, nil)
	}
	if cap(n.nows) < k {
		n.nows = make([]time.Duration, k)
		n.outs = make([]pipeline.Result, k)
	}
	nows, outs := n.nows[:k], n.outs[:k]
	for i := range orders {
		n.vals[i] = n.ex.Values(&orders[i], n.vals[i])
		nows[i] = n.sim.Now()
	}
	n.sw.ProcessBatch(n.vals[:k], nows, outs)
	return outs
}

// Topology is one simulated network — the stand-in for the paper's
// testbed — and, once Run, its result: the event engine plus every link,
// host and switch node built on it, each carrying its own ledger.
type Topology struct {
	*Sim
	// HostConfig is what every Host is built with; its NIC rate is also
	// the rate of every Link.
	HostConfig HostConfig

	Links    []*Link
	Hosts    []*Host
	Switches []*Switch
}

// NewTopology returns an empty network of default hosts at t=0.
func NewTopology() *Topology {
	return &Topology{Sim: NewSim(), HostConfig: DefaultHostConfig()}
}

// Link adds a link toward to.
func (t *Topology) Link(to Node) *Link {
	l := NewLink(t.Sim, t.HostConfig.NICGbps, Propagation, to)
	t.Links = append(t.Links, l)
	return l
}

// Host adds a subscriber host. A non-empty target restricts its latency
// samples to messages carrying that symbol.
func (t *Topology) Host(target string) *Host {
	h := &Host{sim: t.Sim, cfg: t.HostConfig, cpu: NewServer(t.Sim), target: target, Latency: &stats.Dist{}}
	t.Hosts = append(t.Hosts, h)
	return h
}

// Switch adds a switch node running whatever program sw has installed;
// with flood set it forwards without consulting it.
func (t *Topology) Switch(sw *pipeline.Switch, flood bool) (*Switch, error) {
	if sw == nil {
		return nil, fmt.Errorf("netsim: a switch node needs a pipeline.Switch")
	}
	ex, err := itch.NewExtractor(sw.Program())
	if err != nil {
		return nil, err
	}
	n := &Switch{sim: t.Sim, sw: sw, ex: ex, flood: flood, out: make(map[int]*Link), UnwiredPorts: make(map[int]int)}
	t.Switches = append(t.Switches, n)
	return n, nil
}

// Publish paces feed onto links: packet i leaves at its feed time on
// links[i mod len(links)].
func (t *Topology) Publish(feed []workload.FeedPacket, links ...*Link) {
	for i, fp := range feed {
		l, p := links[i%len(links)], Packet{At: fp.At, Orders: fp.Orders}
		t.Sim.Schedule(fp.At, func() { l.Send(p) })
	}
}

// Delivered sums the messages every host's application processed.
func (t *Topology) Delivered() int {
	n := 0
	for _, h := range t.Hosts {
		n += h.Msgs
	}
	return n
}

// WorstP99 is the highest 99th-percentile latency over the hosts that
// received anything.
func (t *Topology) WorstP99() time.Duration {
	worst := time.Duration(0)
	for _, h := range t.Hosts {
		if h.Latency.Count() > 0 {
			worst = max(worst, h.Latency.Percentile(99))
		}
	}
	return worst
}
