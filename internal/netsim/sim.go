// Package netsim is a discrete-event network simulator: the stand-in for
// the paper's hardware testbed (DPDK publisher/subscriber on Xeon servers
// with 25G NICs around a Tofino switch).
//
// It is one small vocabulary. A Link has a rate, a propagation delay and
// optionally a fault plan under a lossy or a recovering policy; a Host is
// a subscriber CPU behind a NIC queue; a Switch wraps the real
// pipeline.Switch — its fixed latency, its installed program — and either
// filters or floods; Topology.Publish paces a feed onto a link. Every
// experiment is a Topology wired from these (internal/experiments), and
// every link and switch keeps a ledger that must balance.
//
// That is what the latency experiment of §4 depends on: serialization and
// propagation delays on links, the switch's fixed pipeline latency, FIFO
// queueing at the switch egress port, and the subscriber host's
// per-packet/per-message software costs. The baseline's tail latency
// emerges from queueing when feed microbursts exceed the host's service
// rate — exactly the effect the paper measures.
package netsim

import (
	"container/heap"
	"time"
)

// Sim is the discrete-event engine.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    int // tie-break so same-time events run FIFO
}

// NewSim returns an empty simulation at t=0.
func NewSim() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// Schedule runs fn at the absolute simulated time at (>= Now).
func (s *Sim) Schedule(at time.Duration, fn func()) {
	if at < s.now {
		at = s.now
	}
	heap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// After runs fn d after the current time.
func (s *Sim) After(d time.Duration, fn func()) { s.Schedule(s.now+d, fn) }

// Run executes events until the queue drains, returning the final time.
func (s *Sim) Run() time.Duration {
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*event)
		s.now = ev.at
		ev.fn()
	}
	return s.now
}

type event struct {
	at  time.Duration
	seq int
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Server is a single FIFO server: work submitted while busy queues behind
// the in-flight job (an NIC serializing packets, a CPU core filtering
// messages). It is the queueing primitive everything else is built from.
type Server struct {
	sim       *Sim
	busyUntil time.Duration
	queued    int
	maxQueue  int // high-water mark (telemetry)
}

// NewServer returns an idle server on sim.
func NewServer(sim *Sim) *Server { return &Server{sim: sim} }

// Submit enqueues a job with the given service cost; done (optional) runs
// at completion.
func (sv *Server) Submit(cost time.Duration, done func()) {
	start := sv.sim.now
	if sv.busyUntil > start {
		start = sv.busyUntil
		sv.queued++
		if sv.queued > sv.maxQueue {
			sv.maxQueue = sv.queued
		}
	}
	end := start + cost
	sv.busyUntil = end
	sv.sim.Schedule(end, func() {
		if sv.queued > 0 {
			sv.queued--
		}
		if done != nil {
			done()
		}
	})
}

// Backlog returns how long a job submitted now would wait before starting.
func (sv *Server) Backlog() time.Duration {
	if sv.busyUntil > sv.sim.now {
		return sv.busyUntil - sv.sim.now
	}
	return 0
}

// MaxQueue returns the queue-depth high-water mark.
func (sv *Server) MaxQueue() int { return sv.maxQueue }
