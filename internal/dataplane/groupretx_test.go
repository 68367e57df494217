package dataplane

import (
	"bytes"
	"errors"
	"net"
	"strconv"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/telemetry"
	"camus/internal/workload"
)

// startGroupSwitch builds a switch whose program multicasts GOOGL to
// ports {1, 2} (one compiled fanout group) and forwards MSFT to port 3
// alone (a single-port action, the group of one), with three live
// subscriber sockets and a running retransmission responder.
func startGroupSwitch(t *testing.T) (*Switch, *net.UDPConn, *net.UDPConn, *net.UDPConn) {
	t.Helper()
	sub1, sub2, sub3 := listenUDP(t), listenUDP(t), listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Session:       "GRETX",
		Subscriptions: "stock == GOOGL : fwd(1)\nstock == GOOGL : fwd(2)\nstock == MSFT : fwd(3)",
		RetxBuffer:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	for port, conn := range map[int]*net.UDPConn{1: sub1, 2: sub2, 3: sub3} {
		if _, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: conn.LocalAddr().String()}); err != nil {
			t.Fatal(err)
		}
	}
	go sw.serveRetx()
	return sw, sub1, sub2, sub3
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
// body the ring retained, must reproduce the live frame byte for byte. A
// single-port action is one more row: a group of one goes through the
// same framer and the same ring, and is held to the same bytes.
func TestGroupRetxByteExact(t *testing.T) {
	const rounds = 3
	sw, sub1, sub2, sub3 := startGroupSwitch(t)
	st := sw.newProcState(0, sw.conn)
	googl := func(r int) []itch.AddOrder {
		return []itch.AddOrder{order("GOOGL", uint32(10+r), 1000), order("GOOGL", uint32(20+r), 1001)}
	}
	msft := func(r int) []itch.AddOrder {
		return []itch.AddOrder{order("MSFT", uint32(40+r), 1002)}
	}
	for r := 0; r < rounds; r++ {
		// Two group matches per datagram (one group frame of count 2 per
		// round), one single-port match between them, plus a
		// non-matching order that must not leak in.
		sw.processDatagram(st, moldWith(t, "ING", uint64(1+4*r),
			googl(r)[0], msft(r)[0], googl(r)[1],
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
		orders  func(r int) []itch.AddOrder // the port's matches in round r
	}{{"GRETX  001", sub1, googl}, {"GRETX  002", sub2, googl}, {"GRETX  003", sub3, msft}} {
		for r := 0; r < rounds; r++ {
			orders := m.orders(r)
			seq := uint64(1 + len(orders)*r)
			want := moldWith(t, m.session, seq, orders...)
			if live := recvRaw(t, m.conn); !bytes.Equal(live, want) {
				t.Fatalf("%s seq %d: live group frame differs from the per-port serialization\n live: %x\n want: %x",
					m.session, seq, live, want)
			}
			// Served from the shared bodies the rings alias.
			req := itch.MoldRequest{Sequence: seq, Count: uint16(len(orders))}
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
// accounting on the portable writer.
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
// series of the port it was for, on both writers. A refused socket fails
// every write (errorConn is not a *net.UDPConn, so the lane gets the
// portable writer); an IPv6 address on the IPv4 egress socket fails that
// one entry, and the entries around it in the same window must go out and
// stay blameless (the sendmmsg writer used to report entry 0 instead).
func TestSendEgressPortErrorAttribution(t *testing.T) {
	sink := listenUDP(t)
	good := sink.LocalAddr().String()
	for _, tc := range []struct {
		name      string
		batch     int
		refuse    bool           // egress through errorConn
		addrs     map[int]string // port -> subscriber address
		wantErrs  map[int]uint64 // port -> failed writes
		forwarded uint64
	}{
		{"portable/refused", 1, true, map[int]string{1: good, 2: good}, map[int]uint64{1: 1, 2: 1}, 0},
		{"portable/bad-address", 1, false, map[int]string{1: good, 2: "[::1]:9", 3: good}, map[int]uint64{2: 1}, 2},
		{"sendmmsg/bad-address", 32, false, map[int]string{1: good, 2: "[::1]:9", 3: good}, map[int]uint64{2: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Subscriptions: "stock == GOOGL : fwd(1)\nstock == MSFT : fwd(2)\nstock == ORCL : fwd(3)",
				Batch:         tc.batch,
				Telemetry:     telemetry.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			for port, addr := range tc.addrs {
				if _, err := sw.Subscribe(SubscriberConfig{Port: port, Addr: addr}); err != nil {
					t.Fatal(err)
				}
			}
			conn := sw.conn
			if tc.refuse {
				conn = errorConn{}
			}
			st := sw.newProcState(0, conn)
			sw.processDatagram(st, moldWith(t, "S", 1,
				order("GOOGL", 10, 1000),
				order("MSFT", 20, 1000),
				order("ORCL", 30, 1000)))

			var total uint64
			snap := sw.Snapshot()
			for port := 1; port <= 4; port++ {
				want := tc.wantErrs[port]
				total += want
				key := `camus_dataplane_port_send_errors_total{port="` + strconv.Itoa(port) + `"}`
				if got := snap.Counters[key]; got != want {
					t.Errorf("snapshot %s = %d, want %d", key, got, want)
				}
			}
			if got := sw.Metric("camus_dataplane_send_errors_total"); got != total {
				t.Errorf("send_errors_total = %d, want %d", got, total)
			}
			if got := sw.Metric("camus_dataplane_forwarded_total"); got != tc.forwarded {
				t.Errorf("forwarded_total = %d, want %d", got, tc.forwarded)
			}
		})
	}
}
