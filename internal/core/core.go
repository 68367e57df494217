// Package core ties the Camus system together: it is the in-network
// publish/subscribe engine of the paper's case study (Figure 6). A PubSub
// instance owns a message-format spec, compiles subscription sets, keeps a
// (simulated) switch programmed via the control plane, and processes
// MoldUDP64/ITCH datagrams into per-port deliveries.
package core

import (
	"context"
	"fmt"
	"time"

	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/itch"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// PubSub is a running Camus deployment on one switch.
type PubSub struct {
	spec *spec.Spec
	opts compiler.Options
	tel  *telemetry.Telemetry

	sw  *pipeline.Switch
	ctl *controlplane.Controller
	ex  *itch.Extractor

	valBuf []uint64
}

// Config bundles the PubSub knobs; zero values select defaults.
type Config struct {
	Switch   pipeline.Config
	Compiler compiler.Options
	// Telemetry, when non-nil, is shared by every layer of the
	// deployment: the compiler reports compile durations, the control
	// plane records install spans, and the switch maintains its
	// hardware-style counters, all in one registry.
	Telemetry *telemetry.Telemetry
}

// NewPubSub creates a deployment for a message-format spec with an empty
// subscription set installed.
func NewPubSub(sp *spec.Spec, cfg Config) (*PubSub, error) {
	if cfg.Telemetry != nil {
		cfg.Switch.Telemetry = cfg.Telemetry.Reg()
		cfg.Compiler.Telemetry = cfg.Telemetry.Reg()
	}
	ps := &PubSub{spec: sp, opts: cfg.Compiler, tel: cfg.Telemetry}
	prog, err := compiler.CompileSource(sp, "", cfg.Compiler)
	if err != nil {
		return nil, err
	}
	ps.sw, err = pipeline.New(prog, cfg.Switch)
	if err != nil {
		return nil, err
	}
	ps.ctl = controlplane.NewController(ps.sw)
	ps.ctl.SetTelemetry(cfg.Telemetry)
	ps.ex, err = itch.NewExtractor(prog)
	if err != nil {
		return nil, err
	}
	return ps, nil
}

// Telemetry returns the deployment's shared telemetry (nil when the
// deployment is uninstrumented).
func (ps *PubSub) Telemetry() *telemetry.Telemetry { return ps.tel }

// Snapshot captures every metric and recent control-plane span of the
// deployment in the unified telemetry schema.
func (ps *PubSub) Snapshot() telemetry.Snapshot { return ps.tel.Snapshot() }

// SetSubscriptions compiles a new subscription set and installs it
// incrementally, returning the control-plane delta.
func (ps *PubSub) SetSubscriptions(src string) (controlplane.Delta, error) {
	return ps.SetSubscriptionsContext(context.Background(), src)
}

// SetSubscriptionsContext is SetSubscriptions with a cancelable context:
// the compile gives up once ctx is done, the install stops retrying and
// rolls back, and the recorded span carries the context deadline.
func (ps *PubSub) SetSubscriptionsContext(ctx context.Context, src string) (controlplane.Delta, error) {
	prog, err := ps.Compile(ctx, src)
	if err != nil {
		return controlplane.Delta{}, err
	}
	return ps.Install(ctx, prog)
}

// Compile is the long half of SetSubscriptions. It reads nothing an Install
// or a packet writes, so callers run it outside the lock they install under;
// it gives up, between chunks of the rule source, once ctx is done.
func (ps *PubSub) Compile(ctx context.Context, src string) (*compiler.Program, error) {
	prog, err := compiler.CompileSourceContext(ctx, ps.spec, src, ps.opts)
	if err != nil {
		return nil, fmt.Errorf("camus: compile: %w", err)
	}
	return prog, nil
}

// Install installs a program Compile returned, incrementally, and swaps the
// extractor to its field layout. Callers serialize it against Processors.
func (ps *PubSub) Install(ctx context.Context, prog *compiler.Program) (controlplane.Delta, error) {
	ex, err := itch.NewExtractor(prog)
	if err != nil {
		return controlplane.Delta{}, err
	}
	delta, err := ps.ctl.Update(ctx, prog)
	if err != nil {
		return controlplane.Delta{}, fmt.Errorf("camus: install: %w", err)
	}
	ps.ex = ex
	return delta, nil
}

// Program returns the currently installed compiled program.
func (ps *PubSub) Program() *compiler.Program { return ps.ctl.Program() }

// AdoptProgram resynchronizes the deployment with a program installed on
// the switch out of band — the fabric's epoch controller commits through
// its own per-member control plane, then adopts here so the extractor and
// the embedded controller's diff base match what the device runs. No
// device write happens; callers guarantee prog is what is installed.
func (ps *PubSub) AdoptProgram(prog *compiler.Program) error {
	ex, err := itch.NewExtractor(prog)
	if err != nil {
		return err
	}
	ps.ctl.Adopt(prog)
	ps.ex = ex
	return nil
}

// Switch exposes the underlying device model.
func (ps *PubSub) Switch() *pipeline.Switch { return ps.sw }

// Delivery is one message's forwarding outcome.
type Delivery struct {
	Order itch.AddOrder
	Ports []int
	Group int // multicast group, or -1
}

// ProcessOrder runs a single add-order message through the switch.
func (ps *PubSub) ProcessOrder(o *itch.AddOrder, now time.Duration) pipeline.Result {
	ps.valBuf = ps.ex.Values(o, ps.valBuf)
	return ps.sw.Process(ps.valBuf, now)
}

// Processor is a per-goroutine evaluation handle: it owns its value
// buffers, so any number of Processors may evaluate messages
// concurrently against the same PubSub (the sharded dataplane gives one
// to each worker). Zero allocation in steady state. Callers must
// serialize Begin/Add/Flush against SetSubscriptions (the dataplane does
// so with its install RWMutex); the pipeline itself is safe concurrently.
type Processor struct {
	ps   *PubSub
	lane int        // state lane this processor writes; see NewProcessorAt
	vals [][]uint64 // reused per-message value rows
	now  []time.Duration
	out  []pipeline.Result
	n    int
}

// NewProcessor returns a Processor bound to the deployment on state
// lane 0 (the single-worker deployment shape).
func (ps *PubSub) NewProcessor() *Processor { return ps.NewProcessorAt(0) }

// NewProcessorAt returns a Processor whose stateful register updates
// land on the given state lane. Each lane has a single writer: the
// caller must give every concurrently-flushing Processor its own lane
// index (the sharded dataplane uses its worker index). Reads still see
// all lanes, so lane assignment affects contention, not semantics.
func (ps *PubSub) NewProcessorAt(lane int) *Processor {
	ps.sw.State().EnsureLanes(lane + 1)
	return &Processor{ps: ps, lane: lane}
}

// ProcessOrder evaluates one message immediately (the unbatched path).
func (p *Processor) ProcessOrder(o *itch.AddOrder, now time.Duration) pipeline.Result {
	if len(p.vals) == 0 {
		p.vals = append(p.vals, nil)
	}
	p.vals[0] = p.ps.ex.Values(o, p.vals[0])
	return p.ps.sw.ProcessOn(p.lane, p.vals[0], now)
}

// Begin starts a new batch, discarding any un-flushed messages.
func (p *Processor) Begin() { p.n = 0 }

// Add extracts one message's field values into the pending batch.
//
//camus:hotpath
func (p *Processor) Add(o *itch.AddOrder) {
	if p.n < len(p.vals) {
		p.vals[p.n] = p.ps.ex.Values(o, p.vals[p.n])
	} else {
		p.vals = append(p.vals, p.ps.ex.Values(o, nil))
	}
	p.n++
}

// Pending returns the number of messages added since Begin.
func (p *Processor) Pending() int { return p.n }

// Flush runs the pending batch through the switch pipeline in one
// ProcessBatch call (the program pointer is loaded once for the whole
// batch) and returns one Result per added message, in Add order. The
// returned slice is reused by the next Flush.
//
//camus:hotpath
func (p *Processor) Flush(now time.Duration) []pipeline.Result {
	n := p.n
	if cap(p.now) < n {
		//camus:alloc-ok grows once to the high-water batch size, then reused
		p.now = make([]time.Duration, n)
		p.out = make([]pipeline.Result, n) //camus:alloc-ok grows once to the high-water batch size, then reused
	}
	nows, out := p.now[:n], p.out[:n]
	for i := range nows {
		nows[i] = now
	}
	p.ps.sw.ProcessBatchOn(p.lane, p.vals[:n], nows, out)
	p.n = 0
	return out
}

// ProcessDatagram decodes a MoldUDP64 payload and returns the deliveries
// for every add-order message that matched at least one subscription.
func (ps *PubSub) ProcessDatagram(payload []byte, now time.Duration) ([]Delivery, error) {
	var out []Delivery
	err := itch.ForEachAddOrder(payload, func(o *itch.AddOrder) {
		res := ps.ProcessOrder(o, now)
		if !res.Dropped {
			out = append(out, Delivery{Order: *o, Ports: res.Ports, Group: res.Group})
		}
	})
	if err != nil {
		return nil, fmt.Errorf("camus: datagram: %w", err)
	}
	return out, nil
}
