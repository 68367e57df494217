package telemetry

import (
	"sync/atomic"
	"time"
)

// DefaultBuckets is the fixed latency bucket layout: a 1-2-5 decade sweep
// from 1µs to 10s. It covers everything the repo measures — sub-µs
// pipeline lookups land in the first bucket, end-to-end UDP latencies sit
// mid-range, and cold 100K-subscription recompiles fill the top decades.
// A fixed layout keeps Observe lock-free (no resizing, no mutex) and
// makes every histogram in a deployment mergeable bucket-by-bucket.
var DefaultBuckets = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second,
}

// Histogram is a fixed-bucket duration histogram. Observe is a bounded
// linear scan plus three atomic adds — no mutex, no allocation — so it is
// safe on per-packet paths. The zero value is not usable; construct with
// NewHistogram (or Registry.Histogram).
type Histogram struct {
	bounds  []time.Duration // upper bounds, ascending; +Inf implied
	buckets []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds
}

// NewHistogram returns a histogram with the default bucket layout.
func NewHistogram() *Histogram { return NewHistogramBuckets(DefaultBuckets) }

// NewHistogramBuckets returns a histogram with the given ascending upper
// bounds (an implicit +Inf bucket is appended).
func NewHistogramBuckets(bounds []time.Duration) *Histogram {
	return &Histogram{
		bounds:  append([]time.Duration(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration sample.
//
//camus:hotpath
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// HistogramSnapshot is a point-in-time copy of a histogram, in the shape
// shared by /debug/camus and BENCH JSON files. Bucket counts are
// cumulative (Prometheus semantics): Cumulative[i] is the number of
// samples ≤ UpperBoundsSeconds[i], and the final entry is the +Inf bucket
// (== Count).
type HistogramSnapshot struct {
	Count              uint64    `json:"count"`
	SumSeconds         float64   `json:"sum_seconds"`
	UpperBoundsSeconds []float64 `json:"le_seconds"`
	Cumulative         []uint64  `json:"cumulative"`
}

// Snapshot copies the histogram. The copy is internally consistent enough
// for monitoring (each bucket is read atomically; a concurrent Observe
// may straddle the reads, as with hardware counters read mid-burst).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:              h.count.Load(),
		SumSeconds:         h.Sum().Seconds(),
		UpperBoundsSeconds: make([]float64, 0, len(h.bounds)+1),
		Cumulative:         make([]uint64, 0, len(h.buckets)),
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if i < len(h.bounds) {
			s.UpperBoundsSeconds = append(s.UpperBoundsSeconds, h.bounds[i].Seconds())
		}
		s.Cumulative = append(s.Cumulative, cum)
	}
	// +Inf bound is represented as math.Inf in exposition; keep the JSON
	// array one shorter and let Cumulative's last entry be the total.
	return s
}

// Quantile estimates the q-quantile (0..1) from the bucket counts by
// attributing each bucket's mass to its upper bound — a conservative
// estimate suitable for dashboards, not for the paper's exact CDFs
// (internal/stats keeps raw samples for those).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1] // +Inf bucket: report top bound
		}
	}
	return h.bounds[len(h.bounds)-1]
}
