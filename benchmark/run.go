package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	setups = 5 // cold set-ups per run; setup_s is their median
	slices = 5 // the socket time is cut into this many paced and closed slices, interleaved

	// pacedShare of the socket time is paced: the end-to-end packet-path
	// metrics are taken there, at a fixed offered load. The rest is
	// closed-loop and feeds the layer ledger.
	pacedShare = 0.8

	latencyChunk = 250 * time.Millisecond // paced phase: span of one delivery_p50 sample
	minLatencies = 8                      // a latency chunk with fewer deliveries is not a sample
)

// metric is one reported number with the samples it was taken from.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reports the median of the samples.
func summarize(unit string, samples []float64) metric {
	q1, q2, q3 := quartiles(samples)
	return metric{Value: q2, Unit: unit, Q1: q1, Q3: q3, N: len(samples), Samples: samples}
}

func scalar(unit string, v float64) metric { return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Verdict   string            `json:"verdict"`
	Metrics   map[string]metric `json:"metrics"`
	Env       environment       `json:"env"`

	tracer *tracer
}

// counters is a snapshot of the switch's own accounting.
type counters struct {
	datagrams, messages, forwarded, groupEncodes, groupSends uint64
	readNs, procNs                                           int64
}

func (h *harness) counters() counters {
	r, p := h.sw.BusyNs()
	return counters{
		datagrams:    h.sw.Metric("camus_dataplane_datagrams_total"),
		messages:     h.sw.Metric("camus_dataplane_messages_total"),
		forwarded:    h.sw.Metric("camus_dataplane_forwarded_total"),
		groupEncodes: h.sw.Metric("camus_dataplane_group_encodes_total"),
		groupSends:   h.sw.Metric("camus_dataplane_group_sends_total"),
		readNs:       r, procNs: p,
	}
}

// grow adds the change from a to b.
func (c *counters) grow(a, b counters) {
	c.datagrams += b.datagrams - a.datagrams
	c.messages += b.messages - a.messages
	c.forwarded += b.forwarded - a.forwarded
	c.groupEncodes += b.groupEncodes - a.groupEncodes
	c.groupSends += b.groupSends - a.groupSends
	c.readNs += b.readNs - a.readNs
	c.procNs += b.procNs - a.procNs
}

// live is what the socket phases measured, shared by the end-to-end
// metrics and the layer ledger.
type live struct {
	goodput, tracedGoodput []float64 // msg/s, one per closed slice
	cpuPerKmsg, pacedUtil  []float64 // one per readEvery of paced time
	closed                 counters  // the switch's accounting over the untraced closed slices
	closedWall             time.Duration
}

// runWorkload runs every phase of one workload once and reports either the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func runWorkload(w *workloadDef, seed int64, seconds float64, traced, smoke bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer(fmt.Sprintf("%s/%d", w.name, seed))
	}
	root := tr.begin("run", -1)

	var h *harness
	var setupS []float64
	for i := 0; i < setups; i++ {
		if h != nil {
			h.close()
		}
		runtime.GC() // every set-up starts from the same heap
		s := tr.begin("setup", root)
		start := time.Now()
		var err error
		if h, err = setup(w, seed, tr, s); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		tr.end(s)
	}
	defer h.close()
	entries := h.sw.Program().EntriesTotal()

	pacedSlice := time.Duration(seconds * pacedShare / slices * float64(time.Second))
	closedSlice := time.Duration(seconds * (1 - pacedShare) / slices * float64(time.Second))
	warm, opTime := time.Second, minOpTime
	if smoke {
		warm, opTime = 100*time.Millisecond, 10*time.Millisecond
	}
	runtime.GC()
	if _, err := h.paced(phaseWarm, w.paced, warm, nil, nil); err != nil {
		return nil, err
	}

	// Paced and closed slices alternate, so that a few seconds of a noisy
	// neighbour on the host cannot land on one phase alone. A traced run
	// records a span per window in every other closed slice; the difference
	// between the two kinds of slice is the tracing overhead.
	var lv live
	for i := 0; i < slices; i++ {
		s := tr.begin("paced", root)
		rs, err := h.paced(phasePaced, w.paced, pacedSlice, nil, nil)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		for j := 1; j < len(rs); j++ {
			msgs := float64(rs[j].msgs - rs[j-1].msgs)
			lv.cpuPerKmsg = append(lv.cpuPerKmsg, (rs[j].cpuUS-rs[j-1].cpuUS)/msgs*1000)
			lv.pacedUtil = append(lv.pacedUtil, float64(rs[j].procNs-rs[j-1].procNs)/float64(rs[j].at-rs[j-1].at))
		}

		var windowSpans *tracer
		if traced && i%2 == 1 {
			windowSpans = tr
		}
		s = tr.begin("closed", root)
		before := h.counters()
		credits, err := h.closed(closedSlice, windowSpans, s)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		wall := time.Duration(credits[len(credits)-1] - credits[0])
		rate := float64((len(credits)-1)*windowDgrams*msgsPerDgram) / wall.Seconds()
		if windowSpans != nil {
			lv.tracedGoodput = append(lv.tracedGoodput, rate)
			continue
		}
		lv.closed.grow(before, h.counters())
		lv.closedWall += wall
		lv.goodput = append(lv.goodput, rate)
	}

	s := tr.begin("control", root)
	ctl, err := h.control(seed, traced, opTime, tr, s)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	h.close()
	tr.end(root)

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, tracer: tr}
	v := h.check()
	res.Verdict = v.String()
	res.Attempted, res.Failed, res.Correct = v.attempted, v.failed, v.failed == 0 && v.attempted > 0
	drops := h.sent + h.markers - h.sw.Metric("camus_dataplane_datagrams_total")
	if drops != 0 {
		res.Correct = false
		res.Verdict += fmt.Sprintf("; the ingress socket dropped %d datagrams", drops)
	}
	if !smoke {
		// Validity is about what the numbers mean; a smoke run reports none.
		if err := h.valid(&lv); err != nil {
			return nil, err
		}
	}
	lat, p50s := h.latencies()
	if traced {
		res.Metrics, err = h.layers(&lv, ctl, lat, p50s, drops, tr)
		return res, err
	}
	res.Metrics = map[string]metric{
		"setup_s":       summarize("s", setupS),
		"peak_rss_mb":   scalar("MB", peakRSSMB()),
		"table_entries": scalar("count", float64(entries)),
	}
	fmt.Fprintf(os.Stderr, "paced util %.3f, closed util %.3f (read+proc %.3f), late p50 %.0f us, skipped %d, %d latency samples, sends/msg %.2f\n",
		median(lv.pacedUtil), float64(lv.closed.procNs)/float64(lv.closedWall),
		float64(lv.closed.procNs+lv.closed.readNs)/float64(lv.closedWall),
		median(h.lates), h.skipped, len(lat), float64(lv.closed.forwarded)/float64(lv.closed.messages))
	return res, nil
}

// latencies returns every paced-phase delivery latency in µs, sorted, and
// the median latency of each latencyChunk of paced time. Call after close.
func (h *harness) latencies() (all, p50s []float64) {
	chunks := map[int64][]float64{}
	for _, p := range h.probes {
		for _, s := range p.lat {
			us := float64(s.ns) / 1e3
			all = append(all, us)
			c := s.stamp / int64(latencyChunk)
			chunks[c] = append(chunks[c], us)
		}
	}
	sort.Float64s(all)
	keys := make([]int64, 0, len(chunks))
	for c := range chunks {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, c := range keys {
		if len(chunks[c]) >= minLatencies {
			p50s = append(p50s, median(chunks[c]))
		}
	}
	if len(p50s) == 0 && len(all) > 0 {
		p50s = []float64{median(all)} // too few deliveries to cut into chunks
	}
	return all, p50s
}

// valid refuses a run whose numbers would not mean what their names say.
func (h *harness) valid(lv *live) error {
	if late := median(h.lates); late > float64(tick.Microseconds()) {
		return fmt.Errorf("invalid run: the generator's median lateness %.0f µs exceeds one tick; the paced phase was not paced", late)
	}
	if util := median(lv.pacedUtil); util > 0.6 {
		return fmt.Errorf("invalid run: lane utilisation %.2f in the paced phase; delivery_p50_us would measure a queue, not the path", util)
	}
	return nil
}
