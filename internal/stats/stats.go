// Package stats provides the small statistics toolkit the benchmark
// harness uses to reproduce the paper's figures: latency distributions,
// percentiles, and CDF series like Figure 7.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Dist accumulates duration samples (e.g. message latencies).
type Dist struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (d *Dist) Add(v time.Duration) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// Count returns the number of samples.
func (d *Dist) Count() int { return len(d.samples) }

func (d *Dist) sortSamples() {
	if !d.sorted {
		sort.Slice(d.samples, func(i, j int) bool { return d.samples[i] < d.samples[j] })
		d.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank. It panics on an empty distribution.
func (d *Dist) Percentile(p float64) time.Duration {
	if len(d.samples) == 0 {
		panic("stats: percentile of empty distribution")
	}
	d.sortSamples()
	if p <= 0 {
		return d.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(d.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(d.samples) {
		rank = len(d.samples)
	}
	return d.samples[rank-1]
}

// Min returns the smallest sample.
func (d *Dist) Min() time.Duration { return d.Percentile(0) }

// Max returns the largest sample.
func (d *Dist) Max() time.Duration { return d.Percentile(100) }

// Median returns the 50th percentile.
func (d *Dist) Median() time.Duration { return d.Percentile(50) }

// Mean returns the arithmetic mean.
func (d *Dist) Mean() time.Duration {
	if len(d.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.samples {
		sum += v
	}
	return sum / time.Duration(len(d.samples))
}

// FractionBelow returns the fraction of samples <= v (the CDF at v).
func (d *Dist) FractionBelow(v time.Duration) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.sortSamples()
	idx := sort.Search(len(d.samples), func(i int) bool { return d.samples[i] > v })
	return float64(idx) / float64(len(d.samples))
}

// CDFPoint is one point of a cumulative distribution series.
type CDFPoint struct {
	X time.Duration
	P float64
}

// CDF returns an n-point CDF series over the sample range, suitable for
// plotting Figure-7-style curves.
func (d *Dist) CDF(n int) []CDFPoint {
	if len(d.samples) == 0 || n <= 0 {
		return nil
	}
	d.sortSamples()
	out := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		idx := (len(d.samples)*i)/n - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{X: d.samples[idx], P: float64(i) / float64(n)})
	}
	return out
}

// Summary renders a one-line digest.
func (d *Dist) Summary() string {
	if len(d.samples) == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d min=%v p50=%v p99=%v p99.9=%v max=%v",
		d.Count(), d.Min(), d.Median(), d.Percentile(99), d.Percentile(99.9), d.Max())
}

// Table renders two distributions side by side at fixed CDF probe points,
// the textual equivalent of the paper's Figure 7 plots.
func Table(name string, camus, baseline *Dist, probes []time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s %12s %12s\n", name, "latency<=", "camus", "baseline")
	for _, p := range probes {
		fmt.Fprintf(&b, "%-12v %11.2f%% %11.2f%%\n", p,
			camus.FractionBelow(p)*100, baseline.FractionBelow(p)*100)
	}
	fmt.Fprintf(&b, "camus:    %s\nbaseline: %s\n", camus.Summary(), baseline.Summary())
	return b.String()
}
