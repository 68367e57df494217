// Package telemetry is the observability layer every Camus subsystem
// reports through: a dependency-free metrics registry (atomic counters,
// gauges, fixed-bucket latency histograms) plus a lightweight span tracer
// for control-plane operations.
//
// The design goals mirror the hardware the rest of the repo models. P4
// treats counters as first-class pipeline objects, and Packet
// Transactions argues measurement hooks must live inside the per-stage
// dataplane model to be trustworthy — so the hot-path instruments here
// are single atomic words that subsystems update in place, and the
// registry is only a naming layer over those words. Reading a metric
// never locks a packet path: snapshots and Prometheus scrapes read the
// same atomics the dataplane writes.
//
// Naming convention: camus_<subsystem>_<metric>, with _total suffix on
// counters and _seconds on duration histograms (Prometheus style). Label
// sets are small and fixed (e.g. table="stock", outcome="ok").
//
// Every instrument is nil-safe: methods on a nil *Counter, *Gauge,
// *Histogram, *Tracer, or a nil *Registry are no-ops (or return zero
// values), so instrumented code needs no "is telemetry on?" branches
// except where avoiding ancillary work (a time.Now call) matters.
package telemetry

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a Counter embedded in a subsystem's stats struct can be
// adopted into a Registry with RegisterCounter, making the struct a view
// over the registry (one source of truth, two access paths).
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//camus:hotpath
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (occupancy, sizes, rates).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Label is one name=value metric dimension.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesKey renders name plus a sorted, escaped label set in Prometheus
// form: name{k1="v1",k2="v2"}. It is both the registry map key and the
// exposition/snapshot identity of the series.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metricKind tags a registered series for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// series is one registered time series.
type series struct {
	name string // bare metric name (no labels)
	key  string // seriesKey(name, labels)
	kind metricKind
	help string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // kindCounterFunc / kindGaugeFunc
}

// Registry is a metrics namespace. Instrument creation takes a mutex;
// instrument updates are lock-free atomic operations on the returned
// pointers, so per-packet code holds no locks and shares no mutable state
// beyond single cache lines.
//
// All methods are safe for concurrent use. A nil *Registry is valid:
// get-or-create methods return detached instruments that still count but
// are not exported, so subsystems instrument unconditionally and the
// caller decides whether the numbers are observable.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series
	order  []string // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// help registers/overrides the help string of a metric name.
func (r *Registry) setHelp(s *series, help string) {
	if help != "" {
		s.help = help
	}
}

// lookup returns the series for key, or nil.
func (r *Registry) lookup(key string) *series {
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	return s
}

// insert adds a series under key unless one exists; returns the winner.
func (r *Registry) insert(key string, mk func() *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		return s
	}
	s := mk()
	r.series[key] = s
	r.order = append(r.order, key)
	return s
}

// Counter returns the counter registered under name+labels, creating it
// if needed. On a nil registry it returns a detached counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return new(Counter)
	}
	key := seriesKey(name, labels)
	if s := r.lookup(key); s != nil && s.counter != nil {
		return s.counter
	}
	s := r.insert(key, func() *series {
		return &series{name: name, key: key, kind: kindCounter, counter: new(Counter)}
	})
	if s.counter == nil {
		return new(Counter) // name collision with a non-counter: detach
	}
	return s.counter
}

// RegisterCounter adopts an existing Counter (typically a stats-struct
// field) as the series name+labels. Re-registering the same series
// rebinds it, so a fresh subsystem instance takes over its series.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	if r == nil || c == nil {
		return
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		s.kind, s.counter, s.gauge, s.hist, s.fn = kindCounter, c, nil, nil, nil
		return
	}
	r.series[key] = &series{name: name, key: key, kind: kindCounter, counter: c}
	r.order = append(r.order, key)
}

// Gauge returns the gauge registered under name+labels, creating it if
// needed. On a nil registry it returns a detached gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return new(Gauge)
	}
	key := seriesKey(name, labels)
	if s := r.lookup(key); s != nil && s.gauge != nil {
		return s.gauge
	}
	s := r.insert(key, func() *series {
		return &series{name: name, key: key, kind: kindGauge, gauge: new(Gauge)}
	})
	if s.gauge == nil {
		return new(Gauge)
	}
	return s.gauge
}

// Histogram returns the latency histogram registered under name+labels,
// creating it with the default bucket layout if needed. On a nil registry
// it returns a detached histogram.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return NewHistogram()
	}
	key := seriesKey(name, labels)
	if s := r.lookup(key); s != nil && s.hist != nil {
		return s.hist
	}
	s := r.insert(key, func() *series {
		return &series{name: name, key: key, kind: kindHistogram, hist: NewHistogram()}
	})
	if s.hist == nil {
		return NewHistogram()
	}
	return s.hist
}

// CounterFunc registers a read-at-scrape counter series: fn is called
// when a snapshot or exposition is taken. Use for values derived from
// other atomics (e.g. per-table hits = packets − misses) so the hot path
// pays for at most one counter per event.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	r.registerFunc(name, kindCounterFunc, fn, labels)
}

// GaugeFunc registers a read-at-scrape gauge series.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.registerFunc(name, kindGaugeFunc, fn, labels)
}

func (r *Registry) registerFunc(name string, kind metricKind, fn func() float64, labels []Label) {
	if r == nil || fn == nil {
		return
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[key]; ok {
		s.kind, s.counter, s.gauge, s.hist, s.fn = kind, nil, nil, nil, fn
		return
	}
	r.series[key] = &series{name: name, key: key, kind: kind, fn: fn}
	r.order = append(r.order, key)
}

// Help sets the HELP string emitted for a metric name (applies to every
// series of that name).
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range r.order {
		if s := r.series[key]; s.name == name {
			r.setHelp(s, help)
		}
	}
}

// snapshotSeries returns the registered series in stable order.
func (r *Registry) snapshotSeries() []*series {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*series, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, r.series[key])
	}
	return out
}

// Telemetry bundles the registry and tracer one deployment shares across
// its compiler, control plane, pipeline, and dataplane. It is the value
// the top-level camus facade passes around (camus.WithTelemetry).
type Telemetry struct {
	Registry *Registry
	Tracer   *Tracer
}

// New returns a Telemetry with a fresh registry and a tracer retaining
// the default number of recent spans.
func New() *Telemetry {
	reg := NewRegistry()
	return &Telemetry{Registry: reg, Tracer: NewTracer(reg, 0)}
}

// Reg returns the registry, nil-safe.
func (t *Telemetry) Reg() *Registry {
	if t == nil {
		return nil
	}
	return t.Registry
}

// Trc returns the tracer, nil-safe.
func (t *Telemetry) Trc() *Tracer {
	if t == nil {
		return nil
	}
	return t.Tracer
}
