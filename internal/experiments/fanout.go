package experiments

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"time"

	"camus/internal/dataplane"
	"camus/internal/workload"
)

// EgressFanoutConfig parameterizes the multicast-fanout experiment: a fixed
// number of compiled multicast groups is fanned out to a growing
// subscriber population. The run replays in-memory (serial, shared
// ingress), so the measured per-packet processing cost isolates the
// egress framing work the encode-once engine amortizes.
type EgressFanoutConfig struct {
	Ports         []int // subscriber-count axis (default 100, 1000, 10000)
	Groups        int   // compiled multicast groups (default 20)
	Packets       int   // replay budget cap per point (default 20000)
	MsgsPerPacket int   // add-orders per ingress datagram (default 4)
	Batch         int   // Config.Batch passed to the switch (default 32)
	Seed          int64
}

// EgressFanoutSweep is the default subscriber-count axis.
var EgressFanoutSweep = []int{100, 1000, 10000}

// EgressFanoutPoint is one row of the subscriber-count sweep.
// ProcNsPerPacket is the serial lane cost per ingress datagram.
// EncodeOnceRatio is the fraction of egress datagrams whose body was an
// already-encoded shared buffer rather than a fresh serialization — at
// fanout F it approaches (F-1)/F.
type EgressFanoutPoint struct {
	Ports           int     `json:"ports"`
	Groups          int     `json:"groups"`
	Fanout          int     `json:"fanout"`
	Packets         int     `json:"packets"`
	Messages        int     `json:"messages"`
	Matched         uint64  `json:"matched"`
	Forwarded       uint64  `json:"forwarded"`
	GroupEncodes    uint64  `json:"group_encodes"`
	GroupSends      uint64  `json:"group_sends"`
	EncodeOnceRatio float64 `json:"encode_once_ratio"`
	GroupBytesSaved uint64  `json:"group_bytes_saved"`
	ProcNsPerPacket float64 `json:"proc_ns_per_packet"`
	AllocsPerOp     float64 `json:"allocs_per_op"` // steady state
}

// DataplaneFanout runs the subscriber-count sweep and returns one point
// per population size.
func DataplaneFanout(cfg EgressFanoutConfig) ([]EgressFanoutPoint, error) {
	if len(cfg.Ports) == 0 {
		cfg.Ports = EgressFanoutSweep
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 20
	}
	if cfg.Packets <= 0 {
		cfg.Packets = 20000
	}
	if cfg.MsgsPerPacket <= 0 {
		cfg.MsgsPerPacket = 4
	}
	if cfg.Batch == 0 {
		cfg.Batch = 32
	}

	// Every message carries one of the Groups symbols, so every matched
	// message fans out to exactly one compiled group.
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Seed = cfg.Seed + 1
	feedCfg.Symbols = cfg.Groups
	feedCfg.TargetSymbol = workload.StockSymbol(0)
	feedCfg.MsgsPerPacket = cfg.MsgsPerPacket
	feed := workload.GenerateFeed(feedCfg)
	wires := make([][]byte, len(feed))
	for i, p := range feed {
		wires[i] = workload.WirePacket(p, "BENCH", uint64(1+i*cfg.MsgsPerPacket))
	}

	var out []EgressFanoutPoint
	for _, ports := range cfg.Ports {
		fanout := ports / cfg.Groups
		if fanout < 1 {
			fanout = 1
		}
		ports = fanout * cfg.Groups
		// The per-point budget shrinks with fanout so the total egress
		// volume (packets x fanout) stays roughly level across the axis.
		packets := cfg.Packets
		if lim := 2_400_000 / fanout; packets > lim {
			packets = lim
		}
		if packets < 2000 {
			packets = 2000
		}
		subs := workload.FanoutSubscriptionSource(cfg.Groups, ports)
		portMap := make(map[int]string, ports)
		for h := 1; h <= ports; h++ {
			portMap[h] = "127.0.0.1:9"
		}

		pt, err := replayEgressFanout(cfg, subs, portMap, wires, packets)
		if err != nil {
			return nil, err
		}
		pt.Ports, pt.Groups, pt.Fanout = ports, cfg.Groups, fanout
		out = append(out, pt)
	}
	return out, nil
}

// replayEgressFanout replays the feed serially (one worker, shared ingress,
// discarded egress writes) through a switch compiled with the fanout
// workload and fills in the point's measured columns.
func replayEgressFanout(cfg EgressFanoutConfig, subs string, ports map[int]string, wires [][]byte, packets int) (EgressFanoutPoint, error) {
	var r EgressFanoutPoint
	// Warm-up must outlast ring fill: until every port's retransmission
	// ring has evicted at least once and the shared-body pool, lazy
	// per-slot headers, and egress arrays have reached their working-set
	// size, a gate opened earlier charges warm-up churn (and the GC
	// cycles it triggers) to the steady-state Mallocs delta.
	warm := int64(packets / 2)
	if warm > 2000 {
		warm = 2000
	}
	gate := make(chan struct{})
	var rc *replayConn
	wrap := func(c dataplane.Conn) dataplane.Conn {
		if rc == nil {
			rc = &replayConn{
				inner: c,
				pkts:  wires,
				total: int64(packets),
				warm:  warm,
				gate:  gate,
				raddr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1},
			}
			return rc
		}
		return c
	}
	sw, err := dataplane.Listen(dataplane.Config{
		Spec:          workload.ITCHSpec(),
		Subscriptions: subs,
		Ports:         ports,
		Workers:       1,
		IngressMode:   dataplane.IngressShared,
		Batch:         cfg.Batch,
		RetxBuffer:    64,
		WrapConn:      wrap,
	})
	if err != nil {
		return r, err
	}

	runErr := make(chan error, 1)
	go func() { runErr <- sw.Run(context.Background()) }()
	warmMsgs := uint64(warm) * uint64(cfg.MsgsPerPacket)
	deadline := time.Now().Add(30 * time.Second)
	for sw.Metric("camus_dataplane_messages_total") < warmMsgs && time.Now().Before(deadline) {
		time.Sleep(200 * time.Microsecond)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	close(gate)
	if err := <-runErr; err != nil {
		sw.Close()
		return r, err
	}
	runtime.ReadMemStats(&m1)
	_, procNs := sw.BusyNs()
	r.Packets = int(sw.Metric("camus_dataplane_datagrams_total"))
	r.Messages = int(sw.Metric("camus_dataplane_messages_total"))
	r.Matched = sw.Metric("camus_dataplane_matched_total")
	r.Forwarded = sw.Metric("camus_dataplane_forwarded_total")
	r.GroupEncodes = sw.Metric("camus_dataplane_group_encodes_total")
	r.GroupSends = sw.Metric("camus_dataplane_group_sends_total")
	r.GroupBytesSaved = sw.Metric("camus_dataplane_group_bytes_saved_total")
	if r.GroupSends > 0 {
		r.EncodeOnceRatio = float64(r.GroupSends-r.GroupEncodes) / float64(r.GroupSends)
	}
	r.ProcNsPerPacket = float64(procNs) / float64(r.Packets)
	measured := r.Packets - int(warm)
	if measured <= 0 {
		measured = r.Packets
	}
	r.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(measured)
	sw.Close()
	return r, nil
}

// FormatEgressFanout renders the sweep as an aligned table.
func FormatEgressFanout(pts []EgressFanoutPoint) string {
	var b strings.Builder
	if len(pts) == 0 {
		return ""
	}
	fmt.Fprintf(&b, "Multicast egress fanout (%d groups, encode-once egress, %d-core host):\n",
		pts[0].Groups, runtime.NumCPU())
	fmt.Fprintf(&b, "  %-8s %8s %12s %9s %12s %12s\n",
		"ports", "fanout", "ns/pkt", "hit", "MB saved", "allocs/op")
	for _, p := range pts {
		fmt.Fprintf(&b, "  %-8d %8d %12.1f %8.1f%% %12.1f %12.3f\n",
			p.Ports, p.Fanout, p.ProcNsPerPacket, 100*p.EncodeOnceRatio, float64(p.GroupBytesSaved)/1e6, p.AllocsPerOp)
	}
	return b.String()
}
