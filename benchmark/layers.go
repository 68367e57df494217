package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/controlplane"
	"camus/internal/core"
	"camus/internal/dataplane"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/pipeline"
	"camus/internal/telemetry"
)

// perLayerUnits names every per-layer metric a traced run reports. Layers are this repository's packages; everything
// is measured from here, by timing calls into exported entry points over
// the workload's own inputs and by reading existing accessors.
var perLayerUnits = map[string]string{
	"lang.parse_ns_per_rule":           "ns",
	"lang.dnf_ns_per_rule":             "ns",
	"compiler.compile_cold_ms":         "ms",
	"compiler.resolve_ms":              "ms",
	"bdd.build_ms":                     "ms",
	"compiler.lower_ms":                "ms",
	"compiler.glue_ms":                 "ms",
	"compiler.bdd_nodes":               "count",
	"compiler.multicast_groups":        "count",
	"compiler.allocs_per_rule":         "count",
	"compiler.session_localized_ms":    "ms",
	"compiler.session_uniform_ms":      "ms",
	"compiler.session_memo_hit_ratio":  "ratio",
	"compiler.session_arena_nodes":     "count",
	"compiler.session_add_ms":          "ms",
	"compiler.session_remove_ms":       "ms",
	"controlplane.diff_ms":             "ms",
	"controlplane.delta_writes":        "count",
	"pipeline.install_ms":              "ms",
	"itch.decode_ns_per_msg":           "ns",
	"core.extract_ns_per_msg":          "ns",
	"core.datagram_ns_per_msg":         "ns",
	"core.glue_ns_per_msg":             "ns",
	"pipeline.match_ns_per_msg":        "ns",
	"pipeline.table_miss_ratio":        "ratio",
	"pipeline.state_ns_per_msg":        "ns",
	"pipeline.state_evictions":         "count",
	"pipeline.state_lossy_evictions":   "count",
	"pipeline.state_cells":             "count",
	"dataplane.update_live_ms":         "ms",
	"dataplane.cpu_us_per_kmsg":        "us",
	"dataplane.goodput_msgs_per_s":     "msg/s",
	"dataplane.read_busy_ns_per_dgram": "ns",
	"dataplane.lane_busy_ns_per_msg":   "ns",
	"dataplane.lane_util":              "ratio",
	"dataplane.egress_self_ns_per_msg": "ns",
	"dataplane.egress_ns_per_send":     "ns",
	"dataplane.sends_per_msg":          "count",
	"dataplane.encode_once_ratio":      "ratio",
	"dataplane.mem_lane_ns_per_msg":    "ns",
	"dataplane.ingress_drops":          "count",
	"dataplane.allocs_per_dgram":       "count",
	"dataplane.retx_served":            "count",
	"dataplane.send_errors":            "count",
	"dataplane.unbound_port":           "count",
	"receiver.delivery_p50_us":         "us",
	"receiver.delivery_p99_us":         "us",
	"receiver.delivery_p999_us":        "us",
	"receiver.requests":                "count",
	"receiver.recovered":               "count",
	"receiver.gaps_lost":               "count",
	"receiver.duplicates":              "count",
	"gen.late_p50_us":                  "us",
	"gen.late_p99_us":                  "us",
	"trace.overhead_pct":               "%",
}

const (
	replayBatch  = 1024 // datagrams per span, so two clock reads amortise to nothing
	replayPasses = 4    // times the template ring is replayed through each entry point
)

// layerRun collects a traced run's per-layer metrics.
type layerRun struct {
	h      *harness
	tr     *tracer
	parent int // the layer-replay span
	out    map[string]metric
}

func (l *layerRun) set(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("benchmark: unnamed per-layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio of nothing to nothing: the layer did no work
	}
	l.out[name] = scalar(unit, v)
}

// layers is the traced run's layer replay: each exported entry point along
// the compile path and the packet path is timed alone, over this run's own
// rule source and datagrams, and set beside what the live switch reported
// for the closed phase.
func (h *harness) layers(lv *live, ctl *controlOut, lat, p50s []float64, ingressDrops uint64, tr *tracer) (map[string]metric, error) {
	l := &layerRun{h: h, tr: tr, parent: tr.begin("layer-replay", -1), out: map[string]metric{}}
	defer tr.end(l.parent)
	if err := l.compilePath(ctl); err != nil {
		return nil, err
	}
	datagram, err := l.packetPath()
	if err != nil {
		return nil, err
	}
	if err := l.livePath(lv, ctl, datagram, lat, p50s, ingressDrops); err != nil {
		return nil, err
	}
	return l.out, nil
}

// compilePath times the compile and install stages one by one.
func (l *layerRun) compilePath(ctl *controlOut) error {
	h, tr, parent, set := l.h, l.tr, l.parent, l.set
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	sp, err := h.w.spec()
	if err != nil {
		return err
	}
	src := h.in.sets[0].src

	// The compile path, stage by stage.
	var rules []lang.Rule
	parse := tr.timed("lang.parse", parent, func() { rules, err = lang.ParseRules(src) })
	if err != nil {
		return err
	}
	dnf := tr.timed("lang.dnf", parent, func() { _, err = lang.NormalizeAll(rules) })
	if err != nil {
		return err
	}
	var fields []compiler.FieldInfo
	var conjs []bdd.Conj
	resolve := tr.timed("compiler.resolve", parent, func() { fields, conjs, err = compiler.ResolveConjs(sp, rules, compiler.Options{}) })
	if err != nil {
		return err
	}
	bddFields := make([]bdd.Field, len(fields))
	for i, f := range fields {
		bddFields[i] = bdd.Field{Name: f.Name, Max: f.Max}
	}
	build := tr.timed("bdd.build", parent, func() { _, err = bdd.Build(bddFields, conjs) })
	if err != nil {
		return err
	}
	actions := make([][]lang.Action, len(rules))
	for i, r := range rules {
		actions[i] = r.Actions
	}
	var lowerErr error
	buildAndLower := tr.timed("compiler.compile-conjs", parent, func() { _, lowerErr = compiler.CompileConjs(sp, conjs, actions, compiler.Options{}) })
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var prog *compiler.Program
	compile := tr.timed("compiler.compile", parent, func() { prog, err = compiler.Compile(sp, rules, compiler.Options{}) })
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&mem1)
	if lowerErr != nil {
		// CompileConjs takes packet fields only; with keyed state in the
		// rules the lowering stage is what the other stages leave over.
		buildAndLower = compile - resolve
	}
	set("lang.parse_ns_per_rule", float64(parse.Nanoseconds())/float64(len(rules)))
	set("lang.dnf_ns_per_rule", float64(dnf.Nanoseconds())/float64(len(rules)))
	set("compiler.compile_cold_ms", median(ctl.compile)*1e3)
	set("compiler.resolve_ms", ms(resolve))
	set("bdd.build_ms", ms(build))
	set("compiler.lower_ms", ms(buildAndLower-build))
	set("compiler.glue_ms", ms(compile-resolve-buildAndLower))
	set("compiler.bdd_nodes", float64(prog.Stats.BDDNodes))
	set("compiler.multicast_groups", float64(prog.Stats.MulticastGroups))
	set("compiler.allocs_per_rule", float64(mem1.Mallocs-mem0.Mallocs)/float64(len(rules)))
	set("compiler.session_localized_ms", median(ctl.localized)*1e3)
	set("compiler.session_uniform_ms", median(ctl.uniform)*1e3)
	set("compiler.session_memo_hit_ratio", ctl.memoHitRatio)
	set("compiler.session_arena_nodes", float64(ctl.arenaNodes))
	set("compiler.session_add_ms", median(ctl.add)*1e3)
	set("compiler.session_remove_ms", median(ctl.remove)*1e3)

	// The install path: what a live update pays after its compile.
	next, err := compiler.CompileSource(sp, h.in.sets[1].src, compiler.Options{})
	if err != nil {
		return err
	}
	var delta controlplane.Delta
	diff := tr.timed("controlplane.diff", parent, func() {
		controlplane.AlignStates(prog, next)
		delta = controlplane.DiffPrograms(prog, next)
	})
	device, err := pipeline.New(prog, pipeline.DefaultConfig())
	if err != nil {
		return err
	}
	install := tr.timed("pipeline.install", parent, func() { err = device.Reinstall(next) })
	if err != nil {
		return err
	}
	set("controlplane.diff_ms", ms(diff))
	set("controlplane.delta_writes", float64(delta.Writes()))
	set("pipeline.install_ms", ms(install))
	return nil
}

// packetPath replays the run's datagrams through each entry point of the
// packet path and returns what the whole datagram path costs per message.
func (l *layerRun) packetPath() (datagramNs float64, err error) {
	h, tr, parent, set := l.h, l.tr, l.parent, l.set
	sp, err := h.w.spec()
	if err != nil {
		return 0, err
	}
	src := h.in.sets[0].src

	// The packet path, entry point by entry point, on an engine of its own
	// with the production telemetry on.
	tel := telemetry.New()
	engine, err := core.NewPubSub(sp, core.Config{Telemetry: tel})
	if err != nil {
		return 0, err
	}
	if _, err := engine.SetSubscriptions(src); err != nil {
		return 0, err
	}
	msgs := float64(replayPasses * templates * msgsPerDgram)
	perMsg := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / msgs }
	replay := func(name string, f func(d int)) time.Duration {
		var total time.Duration
		for pass := 0; pass < replayPasses; pass++ {
			for from := 0; from < templates; from += replayBatch {
				total += tr.timed(name, parent, func() {
					for d := from; d < from+replayBatch; d++ {
						f(d)
					}
				})
			}
		}
		return total
	}
	orders := make([]itch.AddOrder, templates*msgsPerDgram)
	var scratch itch.AddOrder
	decode := replay("itch.decode", func(d int) {
		k := d * msgsPerDgram
		_ = itch.DecodeAddOrders(h.in.wires[d], &scratch, func(o *itch.AddOrder, _ []byte) {
			orders[k] = *o
			k++
		})
	})
	ex, err := itch.NewExtractor(engine.Program())
	if err != nil {
		return 0, err
	}
	rows := make([][]uint64, len(orders))
	for k := range rows {
		rows[k] = make([]uint64, len(engine.Program().Fields))
	}
	extract := replay("core.extract", func(d int) {
		for k := d * msgsPerDgram; k < (d+1)*msgsPerDgram; k++ {
			rows[k] = ex.Values(&orders[k], rows[k])
		}
	})
	// Feed time advances 10 µs per message, the paced phase's order of
	// magnitude, so keyed windows roll and cells expire as they do live.
	clock := time.Duration(time.Now().UnixNano())
	nows := make([]time.Duration, msgsPerDgram)
	results := make([]pipeline.Result, msgsPerDgram)
	batchOn := func(dev *pipeline.Switch) func(d int) {
		return func(d int) {
			for i := range nows {
				clock += 10 * time.Microsecond
				nows[i] = clock
			}
			dev.ProcessBatch(rows[d*msgsPerDgram:(d+1)*msgsPerDgram], nows, results)
		}
	}
	match := replay("pipeline.match", batchOn(engine.Switch()))
	var state time.Duration
	if h.w.stateful {
		// The same walk with the keyed-state rules taken out: what is
		// left over is what state costs.
		bare, err := compiler.CompileSource(sp, h.w.markerRule(), compiler.Options{})
		if err != nil {
			return 0, err
		}
		dev, err := pipeline.New(bare, pipeline.DefaultConfig())
		if err != nil {
			return 0, err
		}
		bareEx, err := itch.NewExtractor(bare)
		if err != nil {
			return 0, err
		}
		full := rows
		rows = make([][]uint64, len(orders))
		for k := range orders {
			rows[k] = bareEx.Values(&orders[k], nil)
		}
		stateless := replay("pipeline.match-stateless", batchOn(dev))
		rows = full
		state, match = match-stateless, stateless
	}
	proc := engine.NewProcessor()
	datagram := replay("core.datagram", func(d int) {
		clock += msgsPerDgram * 10 * time.Microsecond
		proc.Begin()
		_ = itch.DecodeAddOrders(h.in.wires[d], &scratch, func(o *itch.AddOrder, _ []byte) { proc.Add(o) })
		proc.Flush(clock)
	})
	var hits, misses float64
	for name, v := range tel.Snapshot().Counters {
		switch {
		case strings.HasPrefix(name, "camus_pipeline_table_hits_total"):
			hits += float64(v)
		case strings.HasPrefix(name, "camus_pipeline_table_misses_total"):
			misses += float64(v)
		}
	}
	set("itch.decode_ns_per_msg", perMsg(decode))
	set("core.extract_ns_per_msg", perMsg(extract))
	set("pipeline.match_ns_per_msg", perMsg(match))
	set("pipeline.state_ns_per_msg", perMsg(state))
	set("core.datagram_ns_per_msg", perMsg(datagram))
	set("core.glue_ns_per_msg", perMsg(datagram-decode-extract-match-state))
	set("pipeline.table_miss_ratio", misses/(hits+misses))
	st := h.sw.Device().State().Stats()
	set("pipeline.state_evictions", float64(st.EvictExpired+st.EvictLossy))
	set("pipeline.state_lossy_evictions", float64(st.EvictLossy))
	set("pipeline.state_cells", float64(st.Cells))
	return perMsg(datagram), nil
}

// livePath sets what the live switch, the probes and the generator
// reported beside the replay.
func (l *layerRun) livePath(lv *live, ctl *controlOut, datagramNs float64, lat, p50s []float64, ingressDrops uint64) error {
	h, tr, parent, set := l.h, l.tr, l.parent, l.set

	// What the live switch reported over the closed phase.
	c := lv.closed
	lane := float64(c.procNs) / float64(c.messages)
	egress := lane - datagramNs
	set("dataplane.update_live_ms", median(ctl.update)*1e3)
	set("dataplane.cpu_us_per_kmsg", median(lv.cpuPerKmsg))
	set("dataplane.goodput_msgs_per_s", float64(c.messages)/lv.closedWall.Seconds())
	set("dataplane.read_busy_ns_per_dgram", float64(c.readNs)/float64(c.datagrams))
	set("dataplane.lane_busy_ns_per_msg", lane)
	set("dataplane.lane_util", float64(c.procNs)/float64(lv.closedWall))
	set("dataplane.egress_self_ns_per_msg", egress)
	set("dataplane.egress_ns_per_send", egress*float64(c.messages)/float64(c.forwarded))
	set("dataplane.sends_per_msg", float64(c.forwarded)/float64(c.messages))
	// Sends that reused a group's one encoding. Members on unbound ports are
	// encoded for and never sent, so the difference can dip below zero.
	set("dataplane.encode_once_ratio", math.Max(0, float64(c.groupSends)-float64(c.groupEncodes))/float64(c.forwarded))
	set("dataplane.retx_served", float64(h.sw.Metric("camus_dataplane_retx_messages_total")))
	set("dataplane.send_errors", float64(h.sw.Metric("camus_dataplane_send_errors_total")))
	set("dataplane.unbound_port", float64(h.sw.Metric("camus_dataplane_unbound_port_total")))

	memLane, allocs, err := h.memLane(tr, parent)
	if err != nil {
		return err
	}
	set("dataplane.mem_lane_ns_per_msg", memLane)
	set("dataplane.allocs_per_dgram", allocs)

	sum := func(name string) float64 {
		var v uint64
		for _, p := range h.probes {
			v += p.rx.Metric(name)
		}
		return float64(v)
	}
	set("dataplane.ingress_drops", float64(ingressDrops))
	set("receiver.delivery_p50_us", median(p50s))
	set("receiver.delivery_p99_us", percentile(lat, 0.99))
	set("receiver.delivery_p999_us", percentile(lat, 0.999))
	set("receiver.requests", sum("camus_receiver_requests_total"))
	set("receiver.recovered", sum("camus_receiver_recovered_total"))
	set("receiver.gaps_lost", sum("camus_receiver_gaps_lost_total"))
	set("receiver.duplicates", sum("camus_receiver_duplicates_total"))

	lates := append([]float64(nil), h.lates...)
	sort.Float64s(lates)
	set("gen.late_p50_us", percentile(lates, 0.5))
	set("gen.late_p99_us", percentile(lates, 0.99))
	untraced, traced := median(lv.goodput), median(lv.tracedGoodput)
	set("trace.overhead_pct", (untraced-traced)/untraced*100)
	return nil
}

// memConn is a harness-owned in-memory socket: reads serve the template
// ring, writes are discarded. Behind Config.WrapConn it shows what the lane
// costs with no kernel under it (and, being wrapped, on the switch's
// per-datagram fallback I/O path rather than recvmmsg/sendmmsg).
type memConn struct {
	dataplane.Conn
	wires [][]byte
	next  int
	total int
	wake  chan struct{}
	once  sync.Once
}

var memSrc = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}

func (c *memConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	if c.next < c.total {
		n := copy(b, c.wires[c.next%len(c.wires)])
		c.next++
		return n, memSrc, nil
	}
	<-c.wake
	return 0, nil, os.ErrDeadlineExceeded
}

func (c *memConn) WriteToUDP(b []byte, _ *net.UDPAddr) (int, error) { return len(b), nil }

func (c *memConn) SetReadDeadline(t time.Time) error {
	if !t.IsZero() {
		c.once.Do(func() { close(c.wake) })
	}
	return nil
}

func (c *memConn) Close() error {
	c.once.Do(func() { close(c.wake) })
	return c.Conn.Close()
}

// memLane runs the workload's datagrams through a second switch whose
// ingress socket is a memConn and returns lane time per message and
// process-wide allocations per datagram (nothing else is running by then
// but the idle probes).
func (h *harness) memLane(tr *tracer, parent int) (nsPerMsg, allocsPerDgram float64, err error) {
	sp, err := h.w.spec()
	if err != nil {
		return 0, 0, err
	}
	total := replayPasses * templates
	first := true
	sw, err := dataplane.Listen(dataplane.Config{
		Spec:          sp,
		Subscriptions: h.in.sets[0].src,
		Workers:       1,
		Batch:         32,
		RetxBuffer:    4096,
		Heartbeat:     time.Second,
		Telemetry:     telemetry.New(),
		WrapConn: func(c dataplane.Conn) dataplane.Conn {
			if !first {
				return c // the retransmission socket stays real
			}
			first = false
			return &memConn{Conn: c, wires: h.in.wires, total: total, wake: make(chan struct{})}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	for port := 1; port <= h.w.hosts; port++ {
		if !h.w.sink && port != h.w.probes[0] && port != h.w.probes[1] {
			continue // unbound on the live switch too
		}
		if _, err := sw.Subscribe(dataplane.SubscriberConfig{Port: port, Addr: memSrc.String()}); err != nil {
			sw.Close()
			return 0, 0, err
		}
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	s := tr.begin("dataplane.mem-lane", parent)
	done := make(chan error, 1)
	go func() { done <- sw.Run(context.Background()) }()
	deadline := time.Now().Add(2 * time.Minute)
	for sw.Metric("camus_dataplane_datagrams_total") < uint64(total) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	tr.end(s)
	runtime.ReadMemStats(&mem1)
	_, procNs := sw.BusyNs()
	got := sw.Metric("camus_dataplane_datagrams_total")
	sw.Close()
	if err := <-done; err != nil {
		return 0, 0, err
	}
	if got < uint64(total) {
		return 0, 0, fmt.Errorf("in-memory lane processed %d of %d datagrams", got, total)
	}
	return float64(procNs) / float64(total*msgsPerDgram), float64(mem1.Mallocs-mem0.Mallocs) / float64(total), nil
}

// printLedger prints where a message's lane time goes, layer by layer.
// egress is by definition what the compute layers leave of the measured
// lane time, so the rows add up to lane + read exactly; the independent
// checks are core.glue (the parts against the whole datagram path) and
// the in-memory lane (program cost against kernel cost).
func printLedger(w io.Writer, res *result) {
	v := func(name string) float64 { return res.Metrics[name].Value }
	lane := v("dataplane.lane_busy_ns_per_msg")
	fmt.Fprintf(w, "layer ledger, %s, ns per ingress message (closed phase)\n", res.Workload)
	for _, row := range [][2]string{
		{"ingress read (waits included)", "dataplane.read_busy_ns_per_dgram"},
		{"itch decode", "itch.decode_ns_per_msg"},
		{"core extract", "core.extract_ns_per_msg"},
		{"pipeline match", "pipeline.match_ns_per_msg"},
		{"pipeline keyed state", "pipeline.state_ns_per_msg"},
		{"core glue", "core.glue_ns_per_msg"},
		{"dataplane egress (self)", "dataplane.egress_self_ns_per_msg"},
	} {
		x := v(row[1])
		if row[1] == "dataplane.read_busy_ns_per_dgram" {
			x /= msgsPerDgram
		}
		fmt.Fprintf(w, "  %-32s %10.1f  %5.1f%% of lane\n", row[0], x, x/lane*100)
	}
	fmt.Fprintf(w, "  %-32s %10.1f  (utilisation %.2f)\n", "lane busy, measured", lane, v("dataplane.lane_util"))
	fmt.Fprintf(w, "  %-32s %10.1f  so kernel sends cost %.1f\n", "lane on an in-memory socket", v("dataplane.mem_lane_ns_per_msg"), lane-v("dataplane.mem_lane_ns_per_msg"))
	fmt.Fprintf(w, "  tracing overhead %.2f%% of goodput\n", v("trace.overhead_pct"))
}
