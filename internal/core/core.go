// Package core ties the Camus system together: it is the in-network
// publish/subscribe engine of the paper's case study (Figure 6). A PubSub
// instance owns a message-format spec, compiles subscription sets, keeps a
// (simulated) switch programmed via the control plane, and processes
// MoldUDP64/ITCH datagrams into per-port deliveries.
package core

import (
	"context"
	"fmt"
	"sync"
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
	tel *telemetry.Telemetry

	sw  *pipeline.Switch
	ctl *controlplane.Controller

	compileMu sync.Mutex        // serializes Compile callers: a Session is not safe for concurrent use
	sess      *compiler.Session // the rules of the source compiled last, resolved
	updateMu  sync.Mutex        // serializes Install callers; no packet path takes it
	proc      *Processor        // lane 0, for ProcessOrder and ProcessDatagram
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
	ps := &PubSub{tel: cfg.Telemetry, sess: compiler.NewSession(sp, cfg.Compiler)}
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
	// Every program of the spec has its ordered queries as packet fields,
	// so binding the empty one refuses a spec ITCH cannot carry, once.
	if _, err := itch.NewExtractor(prog); err != nil {
		return nil, err
	}
	ps.proc = ps.NewProcessor()
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

// Compile is the long half of SetSubscriptions: it syncs the deployment's
// compiler.Session to src, so only the rules whose lines are new to it are
// parsed and resolved, and recompiles. Its program and its errors are
// compiler.CompileSource's of src. Concurrent callers queue; it reads nothing
// an Install or a packet writes, so neither waits on it. It gives up,
// between chunks of the new rules, once ctx is done, and a compile that
// fails leaves the session as it was.
func (ps *PubSub) Compile(ctx context.Context, src string) (*compiler.Program, error) {
	ps.compileMu.Lock()
	defer ps.compileMu.Unlock()
	err := ps.sess.Sync(ctx, compiler.Source{Text: src})
	var prog *compiler.Program
	if err == nil {
		prog, err = ps.sess.Recompile()
	}
	if err != nil {
		return nil, fmt.Errorf("camus: compile: %w", err)
	}
	return prog, nil
}

// Install installs a program Compile returned, incrementally. Concurrent
// callers queue; Processors never wait on it: a batch begun before the
// device swaps is judged by the old program, one begun after by the new.
// A done ctx buys no device write.
func (ps *PubSub) Install(ctx context.Context, prog *compiler.Program) (controlplane.Delta, error) {
	if _, err := itch.NewExtractor(prog); err != nil {
		return controlplane.Delta{}, err
	}
	ps.updateMu.Lock()
	defer ps.updateMu.Unlock()
	if err := ctx.Err(); err != nil {
		return controlplane.Delta{}, err
	}
	delta, err := ps.ctl.Update(ctx, prog)
	if err != nil {
		return controlplane.Delta{}, fmt.Errorf("camus: install: %w", err)
	}
	return delta, nil
}

// Program returns the program the device runs.
func (ps *PubSub) Program() *compiler.Program { return ps.sw.Program() }

// Switch exposes the underlying device model.
func (ps *PubSub) Switch() *pipeline.Switch { return ps.sw }

// Delivery is one message's forwarding outcome.
type Delivery struct {
	Order itch.AddOrder
	Ports compiler.PortSet
	Group int // multicast group, or -1
}

// ProcessOrder runs a single add-order message through the switch on the
// deployment's lane-0 Processor.
func (ps *PubSub) ProcessOrder(o *itch.AddOrder, now time.Duration) pipeline.Result {
	ps.proc.Begin()
	ps.proc.Add(o)
	return ps.proc.Flush(now)[0]
}

// Processor is a per-goroutine evaluation handle: it owns its value
// buffers, so any number of Processors may evaluate messages
// concurrently against the same PubSub (the sharded dataplane gives one
// to each worker). Zero allocation in steady state.
//
// Begin loads the device's generation, and the batch's extraction and
// table walk both run against that generation's program, so an Install
// never waits for a Processor and each batch is judged by exactly one
// program. The extractor is the Processor's own, rebuilt when Begin meets
// a program it has not bound, once per Processor per update.
type Processor struct {
	ps   *PubSub
	lane int // state lane this processor writes; see NewProcessorAt
	gen  *pipeline.Generation
	prog *compiler.Program // the program ex binds
	ex   *itch.Extractor
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
	p := &Processor{ps: ps, lane: lane}
	p.Begin()
	return p
}

// Begin starts a new batch on the installed generation, discarding any
// un-flushed messages.
//
//camus:hotpath
func (p *Processor) Begin() {
	p.n = 0
	p.gen = p.ps.sw.Generation()
	if prog := p.gen.Program(); prog != p.prog {
		p.bind(prog)
	}
}

// bind rebuilds the extractor for prog. Install and NewPubSub bound the
// spec's fields before any program reached the device, so it cannot fail.
func (p *Processor) bind(prog *compiler.Program) {
	ex, err := itch.NewExtractor(prog)
	if err != nil {
		panic(fmt.Sprintf("core: installed program has no ITCH binding: %v", err))
	}
	p.prog, p.ex = prog, ex
}

// Add extracts one message's field values into the pending batch.
//
//camus:hotpath
func (p *Processor) Add(o *itch.AddOrder) {
	if p.n < len(p.vals) {
		p.vals[p.n] = p.ex.Values(o, p.vals[p.n])
	} else {
		p.vals = append(p.vals, p.ex.Values(o, nil))
	}
	p.n++
}

// Pending returns the number of messages added since Begin.
func (p *Processor) Pending() int { return p.n }

// Flush runs the pending batch through the switch pipeline against the
// generation Begin loaded and returns one Result per added message, in Add
// order. The returned slice is reused by the next Flush.
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
	p.ps.sw.ProcessBatchOn(p.gen, p.lane, p.vals[:n], nows, out)
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
