package telemetry

import (
	"encoding/json"
	"time"
)

// Snapshot is the one JSON shape every Camus observability surface
// shares: /debug/camus on a running switch and the final dump
// camus-switch writes on SIGTERM. Keys are full series identities — the
// metric name plus its sorted label set in Prometheus form (`camus_pipeline_
// table_hits_total{table="stock"}`), so a snapshot diff lines up
// one-to-one with a /metrics scrape.
type Snapshot struct {
	TakenAt    time.Time                    `json:"taken_at"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanRecord                 `json:"spans,omitempty"`
}

// Snapshot captures every registered series. Function-backed series are
// evaluated at capture time.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		TakenAt:    time.Now(),
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range r.snapshotSeries() {
		switch s.kind {
		case kindCounter:
			snap.Counters[s.key] = s.counter.Load()
		case kindCounterFunc:
			v := s.fn()
			if v < 0 {
				v = 0 // a derived counter must not go negative mid-transition
			}
			snap.Counters[s.key] = uint64(v)
		case kindGauge:
			snap.Gauges[s.key] = float64(s.gauge.Load())
		case kindGaugeFunc:
			snap.Gauges[s.key] = s.fn()
		case kindHistogram:
			snap.Histograms[s.key] = s.hist.Snapshot()
		}
	}
	return snap
}

// Snapshot captures the registry and the retained spans.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{TakenAt: time.Now()}
	}
	var snap Snapshot
	if t.Registry != nil {
		snap = t.Registry.Snapshot()
	} else {
		snap = Snapshot{TakenAt: time.Now()}
	}
	snap.Spans = t.Tracer.Spans()
	return snap
}

// MarshalIndent renders the snapshot as indented JSON (the /debug/camus
// and SIGTERM-dump format).
func (s Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
