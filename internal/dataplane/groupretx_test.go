package dataplane

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// startGroupSwitch builds a switch whose program multicasts GOOGL to
// ports {1, 2} (one compiled fanout group) with two live subscriber
// sockets and a running retransmission responder.
func startGroupSwitch(t *testing.T) (*Switch, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	sub1, sub2 := listenUDP(t), listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Session:       "GRETX",
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(2)",
		RetxBuffer:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	for port, conn := range map[int]*net.UDPConn{1: sub1, 2: sub2} {
		if _, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: conn.LocalAddr().String()}); err != nil {
			t.Fatal(err)
		}
	}
	go sw.serveRetx()
	return sw, sub1, sub2
}

func recvRaw(t *testing.T, conn *net.UDPConn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64<<10)
	n, _, err := conn.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestGroupRetxByteExact is the wire contract of the encode-once engine:
// every member of a multicast group must see exactly the datagram an
// independent per-port serialization produces — the port's own session
// and running sequence in the header, the matched messages as the body —
// and a retransmission of a group-encoded range, served from the shared
// body the ring retained, must reproduce the live frame byte for byte.
func TestGroupRetxByteExact(t *testing.T) {
	const rounds = 3
	sw, sub1, sub2 := startGroupSwitch(t)
	st := sw.newProcState(0, sw.conn)
	for r := 0; r < rounds; r++ {
		// Two matches per datagram (one group frame of count 2 per
		// round) plus a non-matching order that must not leak in.
		sw.processDatagram(st, moldWith(t, "ING", uint64(1+2*r),
			order("GOOGL", uint32(10+r), 1000),
			order("GOOGL", uint32(20+r), 1001),
			order("ORCL", 30, 1000)))
	}
	if got := sw.Metric("camus_dataplane_group_encodes_total"); got != rounds {
		t.Fatalf("switch encoded %d group bodies, want %d", got, rounds)
	}

	rx, err := net.DialUDP("udp", nil, sw.RetxAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	for _, m := range []struct {
		session string // spelled out: the reference shares no code with sessionFor
		conn    *net.UDPConn
	}{{"GRETX  001", sub1}, {"GRETX  002", sub2}} {
		for r := 0; r < rounds; r++ {
			seq := uint64(1 + 2*r)
			want := moldWith(t, m.session, seq,
				order("GOOGL", uint32(10+r), 1000),
				order("GOOGL", uint32(20+r), 1001))
			if live := recvRaw(t, m.conn); !bytes.Equal(live, want) {
				t.Fatalf("%s seq %d: live group frame differs from the per-port serialization\n live: %x\n want: %x",
					m.session, seq, live, want)
			}
			// Served from the shared bodies the rings alias.
			req := itch.MoldRequest{Sequence: seq, Count: 2}
			copy(req.Session[:], m.session)
			if _, err := rx.Write(req.Bytes()); err != nil {
				t.Fatal(err)
			}
			if reply := recvRaw(t, rx); !bytes.Equal(reply, want) {
				t.Fatalf("%s seq %d: retransmission differs from the per-port serialization\n retx: %x\n want: %x",
					m.session, seq, reply, want)
			}
		}
	}
}

// errorConn refuses every egress write, exercising the send-error
// accounting on the non-batch fallback path.
type errorConn struct{}

func (errorConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) {
	return 0, nil, errors.New("errorConn: no ingress")
}
func (errorConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	return 0, errors.New("errorConn: egress refused")
}
func (errorConn) SetReadDeadline(time.Time) error { return nil }
func (errorConn) Close() error                    { return nil }
func (errorConn) LocalAddr() net.Addr             { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestSendEgressPortErrorAttribution: a failed egress write must land in
// the global send-error counter AND the per-destination-port labeled
// series, on the non-batch fallback path (the wrapped-conn case where
// sendmmsg is unavailable).
func TestSendEgressPortErrorAttribution(t *testing.T) {
	sink := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)",
		Telemetry:     telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	for _, port := range []int{1, 2} {
		if _, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: sink.LocalAddr().String()}); err != nil {
			t.Fatal(err)
		}
	}

	// errorConn is not a *net.UDPConn, so newBatchWriter declines and the
	// lane takes the per-datagram fallback — the path whose error
	// accounting this test pins down.
	st := sw.newProcState(0, errorConn{})
	wire := moldWith(t, "S", 1,
		order("GOOGL", 10, 1000),
		order("MSFT", 20, 1000))
	sw.processDatagram(st, wire)

	if got := sw.Metric("camus_dataplane_send_errors_total"); got != 2 {
		t.Fatalf("send_errors_total = %d, want 2", got)
	}
	if got := sw.Metric("camus_dataplane_forwarded_total"); got != 0 {
		t.Fatalf("forwarded_total = %d, want 0", got)
	}
	for _, port := range []int{1, 2} {
		if got := sw.PortSendErrors(port); got != 1 {
			t.Fatalf("PortSendErrors(%d) = %d, want 1", port, got)
		}
	}
	if got := sw.PortSendErrors(3); got != 0 {
		t.Fatalf("PortSendErrors(3) = %d, want 0", got)
	}
	snap := sw.Snapshot()
	for _, key := range []string{
		`camus_dataplane_port_send_errors_total{port="1"}`,
		`camus_dataplane_port_send_errors_total{port="2"}`,
	} {
		if snap.Counters[key] != 1 {
			t.Fatalf("snapshot %s = %d, want 1", key, snap.Counters[key])
		}
	}
}
