package camus

import (
	"context"
	"net"
	"testing"
	"time"

	"camus/internal/itch"
)

// TestUDPSwitchPublicAPI drives the whole system over real loopback UDP
// through the public API: compile subscriptions, run the dataplane, send
// a Mold datagram, receive the filtered copy.
func TestUDPSwitchPublicAPI(t *testing.T) {
	sub, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	sw, err := ListenUDP(UDPSwitchConfig{
		Spec:          MustParseSpec(testSpec),
		Subscriptions: "stock == GOOGL && shares > 100 : fwd(1)",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if _, err := sw.Subscribe(SubscriberConfig{Port: 1, Addr: sub.LocalAddr().String()}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sw.Run(ctx)

	pub, err := net.DialUDP("udp", nil, sw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	var mp MoldPacket
	mp.Header.SetSession("PUBAPI")
	var hit, miss AddOrder
	hit.SetStock("GOOGL")
	hit.Shares = 500
	miss.SetStock("GOOGL")
	miss.Shares = 50
	mp.Append(hit.Bytes())
	mp.Append(miss.Bytes())
	if _, err := pub.Write(mp.Bytes()); err != nil {
		t.Fatal(err)
	}

	sub.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64<<10)
	n, _, err := sub.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got MoldPacket
	if err := got.Decode(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if len(got.Messages) != 1 {
		t.Fatalf("got %d messages, want 1 (shares filter)", len(got.Messages))
	}
	var o itch.AddOrder
	if err := o.DecodeFromBytes(got.Messages[0]); err != nil {
		t.Fatal(err)
	}
	if o.Shares != 500 {
		t.Fatalf("wrong message forwarded: shares=%d", o.Shares)
	}
	if sw.Metric("camus_dataplane_matched_total") != 1 {
		t.Fatalf("matched = %d", sw.Metric("camus_dataplane_matched_total"))
	}
}
