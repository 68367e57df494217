// Package faults provides deterministic, seeded fault injection for the
// Camus delivery and control planes. A Plan describes which faults to
// inject (drop, duplicate, reorder, delay — by probability or by a
// per-packet predicate); an Injector turns the plan into a reproducible
// decision stream. Wrappers apply a plan to the dataplane's UDP sockets
// (WrapConn), to discrete-event simulator links (internal/netsim consumes
// Injector directly), and to control-plane device writes (FlakyDevice).
//
// Everything is driven by a single seed: the same plan over the same
// packet sequence produces the same faults, so chaos tests are replayable
// bit for bit.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Plan describes the faults to inject on one direction of a channel.
// Probabilities are in [0,1] and evaluated independently per packet; Drop
// wins over the others. The zero value injects nothing.
type Plan struct {
	Seed int64 // decision-stream seed (0 behaves like 1)

	Drop      float64 // probability a packet is silently discarded
	Duplicate float64 // probability a packet is delivered twice
	Reorder   float64 // probability a packet is held and released after its successor
	Delay     float64 // probability a packet is delivered DelayBy late
	DelayBy   time.Duration

	// DropIf, when non-nil, drops packet i (0-based arrival index)
	// whenever it returns true — a sequence predicate for surgical,
	// probability-free scenarios. It is evaluated before the
	// probabilistic faults and composes with them.
	DropIf func(i uint64) bool
}

// Enabled reports whether the plan can inject any fault at all.
func (p Plan) Enabled() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.Reorder > 0 || p.Delay > 0 || p.DropIf != nil
}

// Decision is the fault verdict for one packet. At most one of the flags
// driven by probability is set per packet (Drop wins, then Delay, then
// Reorder, then Duplicate), keeping wrapper semantics simple.
type Decision struct {
	Drop      bool
	Duplicate bool
	Reorder   bool
	Delay     bool
}

// Injector produces the deterministic decision stream for one plan. It is
// safe for concurrent use; decisions are handed out in call order.
type Injector struct {
	mu   sync.Mutex
	plan Plan
	rng  *rand.Rand
	n    uint64
}

// NewInjector builds an injector for a plan.
func NewInjector(p Plan) *Injector {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &Injector{plan: p, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the decision for the next packet. Exactly four uniform
// draws are consumed per call regardless of the plan's probabilities, so
// the decision stream for a given seed is stable as probabilities are
// tuned.
func (in *Injector) Next() Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	i := in.n
	in.n++
	pd, pu, po, pl := in.rng.Float64(), in.rng.Float64(), in.rng.Float64(), in.rng.Float64()
	var d Decision
	if in.plan.DropIf != nil && in.plan.DropIf(i) {
		d.Drop = true
		return d
	}
	switch {
	case pd < in.plan.Drop:
		d.Drop = true
	case pl < in.plan.Delay:
		d.Delay = true
	case po < in.plan.Reorder:
		d.Reorder = true
	case pu < in.plan.Duplicate:
		d.Duplicate = true
	}
	return d
}

// Packets returns how many decisions have been handed out.
func (in *Injector) Packets() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// DelayBy returns the plan's configured delay.
func (in *Injector) DelayBy() time.Duration { return in.plan.DelayBy }

// ParsePlan parses the compact textual plan syntax used by command-line
// flags: comma-separated key=value pairs, e.g.
//
//	seed=7,drop=0.01,dup=0.005,reorder=0.01,delay=0.002:500us
//
// delay takes probability or probability:duration (default duration
// 200µs). A probability is in [0, 1] and a duration is not negative. An
// empty string yields the zero (disabled) plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	p.DelayBy = 200 * time.Microsecond
	for _, kv := range strings.Split(s, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return Plan{}, fmt.Errorf("faults: want key=value, got %q", kv)
		}
		key, val := strings.TrimSpace(kv[:eq]), strings.TrimSpace(kv[eq+1:])
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faults: bad seed %q: %v", val, err)
			}
			p.Seed = n
		case "drop", "dup", "reorder", "delay":
			prob := val
			if key == "delay" {
				if colon := strings.IndexByte(val, ':'); colon >= 0 {
					d, err := time.ParseDuration(val[colon+1:])
					if err != nil || d < 0 {
						return Plan{}, fmt.Errorf("faults: bad delay duration %q: want a duration of 0 or more", val[colon+1:])
					}
					p.DelayBy = d
					prob = val[:colon]
				}
			}
			f, err := strconv.ParseFloat(prob, 64)
			if err != nil || !(f >= 0 && f <= 1) { // NaN fails too
				return Plan{}, fmt.Errorf("faults: bad probability %q for %s", prob, key)
			}
			switch key {
			case "drop":
				p.Drop = f
			case "dup":
				p.Duplicate = f
			case "reorder":
				p.Reorder = f
			case "delay":
				p.Delay = f
			}
		default:
			return Plan{}, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	return p, nil
}
