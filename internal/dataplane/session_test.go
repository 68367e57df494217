package dataplane

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"

	"camus/internal/itch"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// TestPortSessionInjective: ports below 1000 keep the three-digit form,
// and under the default prefix no two ports in 0–99999 share a session.
func TestPortSessionInjective(t *testing.T) {
	sw, err := Listen(Config{Spec: spec.MustParse(workload.ITCHSpecSource)})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for port, want := range map[int]string{
		0: "CAMUS  000", 7: "CAMUS  007", 999: "CAMUS  999",
		1000: "CAMUS 1000", 1001: "CAMUS 1001", 99999: "CAMUS99999",
	} {
		if got := sw.PortSession(port); got != want {
			t.Errorf("PortSession(%d) = %q, want %q", port, got, want)
		}
	}
	seen := make(map[string]int, 100000)
	for port := 0; port < 100000; port++ {
		s := sw.PortSession(port)
		if other, dup := seen[s]; dup {
			t.Fatalf("ports %d and %d share session %q", other, port, s)
		}
		seen[s] = port
	}
}

// TestPortSessionsNeverAlias: ports 1 and 1001 — one session under the
// old port%1000 derivation — are separate retransmission streams, each
// served from its own store; and a custom prefix under which two ports do
// collide is refused at Subscribe instead of aliasing them.
func TestPortSessionsNeverAlias(t *testing.T) {
	sub1, sub1001 := listenUDP(t), listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(1001)",
		RetxBuffer:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for port, conn := range map[int]*net.UDPConn{1: sub1, 1001: sub1001} {
		if _, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: conn.LocalAddr().String()}); err != nil {
			t.Fatal(err)
		}
	}
	go sw.serveRetx()
	sw.processDatagram(sw.newProcState(0, sw.conn), moldWith(t, "ING", 1,
		order("GOOGL", 10, 1000), order("MSFT", 20, 2000)))

	rx, err := net.DialUDP("udp", nil, sw.RetxAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	for _, m := range []struct {
		port int
		conn *net.UDPConn
		want []byte
	}{
		{1, sub1, moldWith(t, "CAMUS  001", 1, order("GOOGL", 10, 1000))},
		{1001, sub1001, moldWith(t, "CAMUS 1001", 1, order("MSFT", 20, 2000))},
	} {
		if live := recvRaw(t, m.conn); !bytes.Equal(live, m.want) {
			t.Fatalf("port %d live frame\n got: %x\nwant: %x", m.port, live, m.want)
		}
		req := itch.MoldRequest{Sequence: 1, Count: 1}
		copy(req.Session[:], sw.PortSession(m.port))
		if _, err := rx.Write(req.Bytes()); err != nil {
			t.Fatal(err)
		}
		if reply := recvRaw(t, rx); !bytes.Equal(reply, m.want) {
			t.Fatalf("port %d retransmission served another port's bytes\n got: %x\nwant: %x", m.port, reply, m.want)
		}
	}

	// "ABCDE1"+2345 and "ABCDE"+12345 are the same ten bytes.
	clash, err := Listen(Config{Spec: spec.MustParse(workload.ITCHSpecSource), Session: "ABCDE1"})
	if err != nil {
		t.Fatal(err)
	}
	defer clash.Close()
	addr := sub1.LocalAddr().String()
	if _, err := clash.Subscribe(SubscriberConfig{Port: 2345, Addr: addr}); err != nil {
		t.Fatal(err)
	}
	if _, err := clash.Subscribe(SubscriberConfig{Port: 12345, Addr: addr}); err == nil {
		t.Fatal("Subscribe aliased port 12345 onto port 2345's session")
	}
	if _, err := clash.Subscribe(SubscriberConfig{Port: 2345, Addr: addr}); err != nil {
		t.Fatalf("rebinding the session's own port: %v", err)
	}
	var sess [10]byte
	copy(sess[:], clash.PortSession(2345))
	if ps := clash.bySession[sess]; ps == nil || ps.port != 2345 || len(clash.ports) != 1 {
		t.Fatalf("refused Subscribe disturbed the bindings: %+v, %d ports", ps, len(clash.ports))
	}
}

// TestSubscribePortRange: a port is bound in [0, lang.MaxPort], the ports
// a fwd() can name. Port 1<<30 and port -1 are refused without growing
// the port index toward them, and lang.MaxPort itself binds and receives
// its matches.
func TestSubscribePortRange(t *testing.T) {
	sub := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: fmt.Sprintf("stock == GOOGL : fwd(%d)", lang.MaxPort),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, port := range []int{1 << 30, lang.MaxPort + 1, -1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: sub.LocalAddr().String()})
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("Subscribe bound port %d, outside [0, %d]", port, lang.MaxPort)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("refusing port %d allocated %d B, want < 1 MB", port, grew)
		}
	}
	if len(sw.ports) != 0 || len(sw.portIdx) != 0 {
		t.Fatalf("refused Subscribes left %d ports bound and an index of %d", len(sw.ports), len(sw.portIdx))
	}

	if _, err := sw.Subscribe(SubscriberConfig{Port: lang.MaxPort, Addr: sub.LocalAddr().String()}); err != nil {
		t.Fatal(err)
	}
	sw.processDatagram(sw.newProcState(0, sw.conn), moldWith(t, "ING", 1, order("GOOGL", 10, 1000)))
	want := moldWith(t, sw.PortSession(lang.MaxPort), 1, order("GOOGL", 10, 1000))
	if got := recvRaw(t, sub); !bytes.Equal(got, want) {
		t.Fatalf("port %d frame\n got: %x\nwant: %x", lang.MaxPort, got, want)
	}
}

// TestMetricReadsEveryRegisteredSeries: every series register adopts is
// readable through Metric, as the same counter — and every counter field
// of switchStats is one of them.
func TestMetricReadsEveryRegisteredSeries(t *testing.T) {
	sw, err := Listen(Config{Spec: spec.MustParse(workload.ITCHSpecSource)})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	fields := reflect.ValueOf(&sw.stats).Elem()
	for i := 0; i < fields.NumField(); i++ {
		fields.Field(i).Addr().Interface().(*telemetry.Counter).Add(uint64(i + 1))
	}
	reg := telemetry.NewRegistry()
	sw.stats.register(reg)
	adopted := reg.Snapshot().Counters
	if len(adopted) != fields.NumField() {
		t.Fatalf("register adopted %d series for %d counters", len(adopted), fields.NumField())
	}
	distinct := make(map[uint64]string, len(adopted))
	for name, v := range adopted {
		if got := sw.Metric(name); got != v || v == 0 {
			t.Errorf("Metric(%q) = %d, registry reads %d", name, got, v)
		}
		if other, dup := distinct[v]; dup {
			t.Errorf("%s and %s are the same counter", name, other)
		}
		distinct[v] = name
	}
	if got := sw.Metric("camus_dataplane_no_such_total"); got != 0 {
		t.Fatalf("unknown series reads %d", got)
	}
}
