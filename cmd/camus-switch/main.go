// Command camus-switch runs the Camus dataplane as a real UDP software
// switch: MoldUDP64/ITCH datagrams arriving on the ingress socket are
// filtered by the compiled subscription pipeline and forwarded to the
// subscriber addresses bound to the output ports.
//
// Usage:
//
//	camus-switch -listen 127.0.0.1:26400 \
//	    -rules subs.txt \
//	    -port 1=127.0.0.1:27001 -port 2=127.0.0.1:27002
//
//	camus-switch -demo      # self-contained publisher/subscriber demo
//
// The -spec flag loads a custom message format; the default is the
// paper's ITCH add-order spec.
//
// Delivery is fault tolerant: each port is re-sequenced as its own
// MoldUDP64 session (-session sets the prefix), a bounded per-port store
// (-retx-buffer) serves retransmission requests on a dedicated socket
// (-retx), and idle ports heartbeat (-heartbeat). -fault-plan injects
// seeded drop/duplication/reordering/delay on the dataplane sockets for
// chaos testing.
//
// -workers sets how many lanes process ingress; a datagram is owned by the
// lane its ITCH stock locate selects, so per-instrument ordering and
// per-port sequencing are preserved. On Linux each lane reads its own
// SO_REUSEPORT socket bound to -listen. A read error on any ingress socket
// stops the switch. A flag the chosen mode does not read is a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"camus/internal/dataplane"
	"camus/internal/fabric"
	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

type portMap map[int]string

func (p portMap) String() string { return fmt.Sprintf("%v", map[int]string(p)) }

func (p portMap) Set(v string) error {
	port, addr, ok := strings.Cut(v, "=")
	n, err := strconv.Atoi(port)
	if !ok || err != nil {
		return fmt.Errorf("want PORT=HOST:PORT, got %q", v)
	}
	p[n] = addr
	return nil
}

func main() {
	ports := portMap{}
	var (
		listen     = flag.String("listen", "127.0.0.1:26400", "ingress UDP address")
		retx       = flag.String("retx", "", "retransmission-request UDP address (default: random port on the ingress IP)")
		rulesPath  = flag.String("rules", "", "subscription rules file")
		specPath   = flag.String("spec", "", "message format spec file (default: ITCH add-order)")
		demo       = flag.Bool("demo", false, "run a self-contained pub/sub demo and exit")
		statsSec   = flag.Int("stats", 10, "print forwarding stats every N seconds (0 = off)")
		session    = flag.String("session", "CAMUS", "egress MoldUDP64 session prefix (per-port suffix appended)")
		retxBuffer = flag.Int("retx-buffer", 4096, "most messages a port retains for retransmission; a bound the store grows toward, not a reservation (negative disables)")
		heartbeat  = flag.Duration("heartbeat", time.Second, "idle-heartbeat interval per port (0 disables)")
		faultPlan  = flag.String("fault-plan", "", "inject faults on the dataplane sockets, e.g. seed=7,drop=0.01,dup=0.005,reorder=0.01,delay=0.002:500us")
		admin      = flag.String("admin", "", "observability HTTP address (e.g. :9090): Prometheus /metrics, JSON /debug/camus, pprof /debug/pprof/")
		workers    = flag.Int("workers", 1, "processing lanes, each owning the instruments whose locate mod workers is its index (1 = the reader processes inline; on Linux one SO_REUSEPORT socket per lane)")
		fabricMode = flag.Bool("fabric", false, "run an in-process two-hop leaf/spine fabric (covering spines, recovering inter-switch links) instead of a single switch")
		fabLeaves  = flag.Int("fabric-leaves", 2, "leaf switches for -fabric (host h hangs off leaf h mod leaves)")
		fabSpines  = flag.Int("fabric-spines", 1, "spine switches for -fabric (spines beyond the first are failover paths)")
	)
	flag.Var(ports, "port", "bind switch port to subscriber address, PORT=HOST:PORT (repeatable)")
	flag.Parse()
	if mode, unread := unreadFlags(flag.Visit, *demo, *fabricMode); len(unread) > 0 {
		fmt.Fprintf(os.Stderr, "camus-switch: %s does not read -%s\n", mode, strings.Join(unread, ", -"))
		os.Exit(2)
	}

	sp := spec.MustParse(workload.ITCHSpecSource)
	if *specPath != "" {
		src, err := os.ReadFile(*specPath)
		fatal(err)
		sp, err = spec.Parse(string(src))
		fatal(err)
	}
	rules := "stock == GOOGL : fwd(1)"
	if *rulesPath != "" {
		src, err := os.ReadFile(*rulesPath)
		fatal(err)
		rules = string(src)
	}
	plan, err := faults.ParsePlan(*faultPlan)
	fatal(err)
	if *faultPlan != "" {
		fmt.Fprintf(os.Stderr, "camus-switch: fault plan active: %s\n", *faultPlan)
	}

	if *demo {
		runDemo(sp)
		return
	}
	if *fabricMode {
		if *rulesPath == "" {
			rules = "stock == GOOGL : fwd(1)\nstock == S001 && shares >= 500 : fwd(2)\n"
		}
		runFabric(sp, rules, ports, plan, *fabLeaves, *fabSpines, *workers, *statsSec, *admin)
		return
	}

	var wrap func(dataplane.Conn) dataplane.Conn
	if *faultPlan != "" {
		seed := plan.Seed
		wrap = func(c dataplane.Conn) dataplane.Conn {
			in, eg := plan, plan
			in.Seed, eg.Seed = seed, seed+1
			seed += 2
			return faults.WrapConn(c, &in, &eg)
		}
	}

	tel := telemetry.New()
	sw, err := dataplane.Listen(dataplane.Config{
		Ingress:       *listen,
		Retx:          *retx,
		Spec:          sp,
		Subscriptions: rules,
		Session:       *session,
		RetxBuffer:    *retxBuffer,
		Heartbeat:     *heartbeat,
		Workers:       *workers,
		WrapConn:      wrap,
		Telemetry:     tel,
	})
	fatal(err)
	for p, a := range ports {
		_, err := sw.Subscribe(dataplane.SubscriberConfig{Port: p, Addr: a, Group: "cli"})
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "camus-switch: listening on %s (retx %s), %d ports bound, %d table entries installed\n",
		sw.Addr(), sw.RetxAddr(), len(ports), sw.Program().Stats.TableEntries)
	fmt.Fprintf(os.Stderr, "camus-switch: config: rules=%s spec=%s session=%q retx-buffer=%d heartbeat=%s workers=%d stats=%ds fault-plan=%q admin=%q\n",
		orDefault(*rulesPath, "<built-in>"), orDefault(*specPath, "<itch-add-order>"),
		*session, *retxBuffer, *heartbeat, *workers, *statsSec, *faultPlan, *admin)

	if *admin != "" {
		regs := telemetry.DebugRoute{Path: "/debug/registers", Doc: func() any {
			return sw.RegisterDump(256)
		}}
		srv, err := telemetry.Serve(*admin, tel, regs)
		fatal(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "camus-switch: admin endpoint on http://%s (/metrics, /debug/camus, /debug/registers, /debug/pprof/)\n", srv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *statsSec > 0 {
		go func() {
			tick := time.NewTicker(time.Duration(*statsSec) * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					m := sw.Metric
					fmt.Fprintf(os.Stderr, "camus-switch: datagrams=%d msgs=%d matched=%d forwarded=%d unbound=%d hb=%d retx-req=%d retx-msgs=%d errs=%d\n",
						m("camus_dataplane_datagrams_total"), m("camus_dataplane_messages_total"),
						m("camus_dataplane_matched_total"), m("camus_dataplane_forwarded_total"),
						m("camus_dataplane_unbound_port_total"), m("camus_dataplane_heartbeats_total"),
						m("camus_dataplane_retx_requests_total"), m("camus_dataplane_retx_messages_total"),
						m("camus_dataplane_decode_errors_total")+m("camus_dataplane_send_errors_total"))
				}
			}
		}()
	}
	err = sw.Run(ctx)
	// Final metrics snapshot on shutdown (SIGINT/SIGTERM or socket close),
	// so a terminated switch leaves its counters in the log.
	if snap, merr := tel.Snapshot().MarshalIndent(); merr == nil {
		fmt.Fprintf(os.Stderr, "camus-switch: final metrics snapshot:\n%s\n", snap)
	}
	fatal(err)
}

// runFabric stands up a live two-hop leaf/spine fabric in one process and
// serves it until SIGINT/SIGTERM: per leaf an up-plane switch gated by the
// global cover, redundant spines running per-leaf covering programs, and
// down-plane switches with the full subscriber rules. Hosts named by -port
// bind external subscriber addresses; fwd targets without a binding get an
// in-process gap-recovering subscriber whose delivery counts appear in the
// stats log. Publishers send MoldUDP64/ITCH to any leaf's publish address.
func runFabric(sp *spec.Spec, rulesSrc string, ports portMap, plan faults.Plan, leaves, spines, workers, statsSec int, admin string) {
	rules, err := lang.ParseRules(rulesSrc)
	fatal(err)

	tel := telemetry.New()
	fab, err := fabric.New(fabric.Config{
		Spec:         sp,
		Leaves:       leaves,
		Spines:       spines,
		LinkFaults:   plan,
		Workers:      workers,
		VerifyCovers: true,
		Telemetry:    tel,
	})
	fatal(err)
	defer fab.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Every fwd target needs a subscriber endpoint: -port bindings win,
	// the rest get in-process recovering receivers.
	hostSet := map[int]bool{}
	for _, r := range rules {
		for _, a := range r.Actions {
			if a.Kind == lang.ActFwd {
				for _, p := range a.Ports {
					hostSet[p] = true
				}
			}
		}
	}
	var hosts []int
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	counts := map[int]*atomic.Uint64{}
	for _, h := range hosts {
		if addr, ok := ports[h]; ok {
			fatal(fab.BindHost(h, addr))
			fmt.Fprintf(os.Stderr, "camus-switch: host %d -> %s (external, leaf %d, retx %s)\n",
				h, addr, fab.LeafForHost(h), fab.HostRetxAddr(h))
			continue
		}
		n := &atomic.Uint64{}
		counts[h] = n
		rcv, err := dataplane.NewReceiver(dataplane.ReceiverConfig{
			Retx:      fab.HostRetxAddr(h).String(),
			OnMessage: func(uint64, []byte) { n.Add(1) },
		})
		fatal(err)
		defer rcv.Close()
		fatal(fab.BindHost(h, rcv.Addr().String()))
		go func() { _ = rcv.Run(ctx) }()
		fmt.Fprintf(os.Stderr, "camus-switch: host %d -> %s (in-process subscriber, leaf %d)\n",
			h, rcv.Addr(), fab.LeafForHost(h))
	}

	fab.Start(ctx)
	ep, err := fab.Apply(ctx, rules)
	fatal(err)
	fmt.Fprintf(os.Stderr, "camus-switch: fabric epoch %d committed: %d leaves, %d spines, %d leaf entries, %d spine entries (covers verified)\n",
		ep.Seq, leaves, spines, ep.LeafEntries, ep.SpineEntries)
	for j := 0; j < leaves; j++ {
		fmt.Fprintf(os.Stderr, "camus-switch: leaf %d publish address %s\n", j, fab.PublishAddr(j))
	}

	if admin != "" {
		srv, err := telemetry.Serve(admin, tel)
		fatal(err)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "camus-switch: admin endpoint on http://%s (camus_fabric_* series included)\n", srv.Addr())
	}

	if statsSec > 0 {
		go func() {
			tick := time.NewTicker(time.Duration(statsSec) * time.Second)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					for j := 0; j < leaves; j++ {
						down, up := fab.Leaf(j)
						fmt.Fprintf(os.Stderr, "camus-switch: leaf %d: up matched=%d uplink-fwd=%d down matched=%d fwd=%d active-spine=%d\n",
							j, up.Metric("camus_dataplane_matched_total"), fab.UplinkRelay(j).Forwarded(),
							down.Metric("camus_dataplane_matched_total"),
							down.Metric("camus_dataplane_forwarded_total"), fab.ActiveSpine(j))
					}
					for s := 0; s < spines; s++ {
						sp := fab.Spine(s)
						var dn []string
						for j := 0; j < leaves; j++ {
							dn = append(dn, fmt.Sprintf("leaf%d=%d", j, fab.DownlinkRelay(s, j).Forwarded()))
						}
						fmt.Fprintf(os.Stderr, "camus-switch: spine %d: datagrams=%d matched=%d fwd=%d downlinks %s\n",
							s, sp.Metric("camus_dataplane_datagrams_total"),
							sp.Metric("camus_dataplane_matched_total"),
							sp.Metric("camus_dataplane_forwarded_total"), strings.Join(dn, " "))
					}
					for _, h := range hosts {
						if n, ok := counts[h]; ok {
							fmt.Fprintf(os.Stderr, "camus-switch: host %d delivered=%d\n", h, n.Load())
						}
					}
				}
			}
		}()
	}

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "camus-switch: shutting down fabric")
	if err := fab.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "camus-switch: fabric close:", err)
	}
	if snap, err := tel.Snapshot().MarshalIndent(); err == nil {
		fmt.Fprintf(os.Stderr, "camus-switch: final metrics snapshot:\n%s\n", snap)
	}
}

// unreadFlags returns the mode that demo and fabric select, and which of
// the flags set on the command line (those visit visits) it does not read.
func unreadFlags(visit func(func(*flag.Flag)), demo, fabric bool) (mode string, unread []string) {
	mode, reads := "a single switch", " demo fabric listen retx rules spec stats session retx-buffer heartbeat fault-plan admin workers port "
	if demo {
		mode, reads = "-demo", " demo spec "
	} else if fabric {
		mode, reads = "-fabric", " demo fabric rules spec stats fault-plan admin workers port fabric-leaves fabric-spines "
	}
	visit(func(f *flag.Flag) {
		if !strings.Contains(reads, " "+f.Name+" ") {
			unread = append(unread, f.Name)
		}
	})
	return mode, unread
}

// orDefault substitutes def for an empty flag value in the config log.
func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// runDemo spins up the switch, two subscriber sockets and a publisher in
// one process, streams a synthetic feed through loopback UDP, and prints
// what each subscriber received.
func runDemo(sp *spec.Spec) {
	sub1, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	fatal(err)
	sub2, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	fatal(err)

	sw, err := dataplane.Listen(dataplane.Config{
		Spec: sp,
		Subscriptions: `
stock == GOOGL : fwd(1)
stock == S001 && shares >= 500 : fwd(2)
`,
	})
	fatal(err)
	for port, sub := range map[int]*net.UDPConn{1: sub1, 2: sub2} {
		_, err := sw.Subscribe(dataplane.SubscriberConfig{Port: port, Addr: sub.LocalAddr().String()})
		fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go sw.Run(ctx)
	defer cancel()

	count := func(conn *net.UDPConn, out *int) {
		buf := make([]byte, 64<<10)
		for {
			conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			_ = itch.ForEachAddOrder(buf[:n], func(*itch.AddOrder) { *out++ })
		}
	}
	var got1, got2 int
	done1 := make(chan struct{})
	done2 := make(chan struct{})
	go func() { count(sub1, &got1); close(done1) }()
	go func() { count(sub2, &got2); close(done2) }()

	pub, err := net.DialUDP("udp", nil, sw.Addr())
	fatal(err)
	cfg := workload.SyntheticFeedConfig()
	cfg.Duration = 50 * time.Millisecond
	feed := workload.GenerateFeed(cfg)
	totalMsgs := 0
	var seq uint64 = 1
	for i, pkt := range feed {
		totalMsgs += len(pkt.Orders)
		_, err := pub.Write(workload.WirePacket(pkt, "DEMO", seq))
		fatal(err)
		seq += uint64(len(pkt.Orders))
		if i%64 == 63 {
			time.Sleep(200 * time.Microsecond) // pace bursts so loopback keeps up
		}
	}
	<-done1
	<-done2

	fmt.Printf("published %d datagrams / %d messages over loopback UDP\n", len(feed), totalMsgs)
	fmt.Printf("switch:   evaluated=%d matched=%d forwarded-datagrams=%d\n",
		sw.Metric("camus_dataplane_messages_total"), sw.Metric("camus_dataplane_matched_total"),
		sw.Metric("camus_dataplane_forwarded_total"))
	fmt.Printf("subscriber 1 (GOOGL):             %d messages\n", got1)
	fmt.Printf("subscriber 2 (S001 block trades): %d messages\n", got2)
	if got1 == 0 || got2 == 0 {
		fmt.Println("warning: a subscriber received nothing (UDP loss on loopback is unusual)")
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "camus-switch:", err)
		os.Exit(1)
	}
}
