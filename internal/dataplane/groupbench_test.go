package dataplane

import (
	"net"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/workload"
)

// nullConn swallows egress without syscalls, so the benchmark prices the
// lane's CPU work alone (the same path the in-memory replay experiments
// measure: a non-*net.UDPConn gets the portable writer).
type nullConn struct{}

func (nullConn) ReadFromUDP(b []byte) (int, *net.UDPAddr, error) { return 0, nil, net.ErrClosed }
func (nullConn) WriteToUDP(b []byte, addr *net.UDPAddr) (int, error) {
	return len(b), nil
}
func (nullConn) SetReadDeadline(time.Time) error { return nil }
func (nullConn) Close() error                    { return nil }
func (nullConn) LocalAddr() net.Addr             { return &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// BenchmarkGroupEgress prices one datagram through the lane at high
// fanout — 4 messages, each multicast to a 500-member group.
func BenchmarkGroupEgress(b *testing.B) {
	const groups, ports = 4, 2000
	sw, err := Listen(Config{
		Spec:          workload.ITCHSpec(),
		Subscriptions: workload.FanoutSubscriptionSource(groups, ports),
		RetxBuffer:    64,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sw.Close()
	for h := 1; h <= ports; h++ {
		if _, err := sw.Subscribe(SubscriberConfig{Port: h, Addr: "127.0.0.1:9"}); err != nil {
			b.Fatal(err)
		}
	}
	var mp itch.MoldPacket
	mp.Header.SetSession("BENCH")
	for i := 0; i < groups; i++ {
		o := order(workload.StockSymbol(i), uint32(100+i), 1000)
		o.StockLocate = uint16(i)
		mp.Append(o.Bytes())
	}
	wire := mp.Bytes()
	st := sw.newProcState(0, nullConn{})
	for i := 0; i < 100; i++ {
		sw.processDatagram(st, wire) // warm rings, pools, scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.processDatagram(st, wire)
	}
}
