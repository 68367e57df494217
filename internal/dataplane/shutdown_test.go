package dataplane

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// TestGracefulShutdownDrainsBeforeEOS: Close while lanes are mid-burst
// must (1) finish forwarding every datagram already handed to a shard
// lane, (2) then emit the MoldUDP64 end-of-session frame whose sequence
// number accounts for exactly the delivered messages, and (3) send
// nothing — data or heartbeat — after it. Before the drain existed,
// Close cut the lanes mid-stream: subscribers saw data after the
// end-of-session frame and an EOS sequence that undercounted delivery.
func TestGracefulShutdownDrainsBeforeEOS(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			sub := listenUDP(t)
			_ = sub.SetReadBuffer(8 << 20)
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Subscriptions: "stock == GOOGL : fwd(1)",
				Workers:       workers,
				Heartbeat:     5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			bindPorts(t, sw, map[int]string{1: sub.LocalAddr().String()})
			// Slow the lanes down so a healthy backlog is in flight when
			// Close lands — the drain has to actually drain something.
			sw.procTestHook = func(int, []byte) { time.Sleep(100 * time.Microsecond) }
			run := make(chan error, 1)
			go func() { run <- sw.Run(context.Background()) }()

			pub, err := net.DialUDP("udp", nil, sw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer pub.Close()

			const published = 400
			for i := 0; i < published; i++ {
				var o itch.AddOrder
				o.SetStock("GOOGL")
				o.StockLocate = uint16(i % 13)
				o.Shares = uint32(i + 1)
				o.Side = itch.Buy
				var mp itch.MoldPacket
				mp.Header.SetSession("SHUT")
				mp.Header.Sequence = uint64(i + 1)
				mp.Append(o.Bytes())
				if _, err := pub.Write(mp.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			// Wait for the reader(s) to ingest the burst — the backlog is
			// then queued in the shard lanes (processing is slowed to
			// ~100us/datagram), which is exactly what Close must drain.
			ingestDeadline := time.Now().Add(5 * time.Second)
			for sw.stats.Datagrams.Load() < published && time.Now().Before(ingestDeadline) {
				time.Sleep(time.Millisecond)
			}
			if got := sw.stats.Datagrams.Load(); got < published {
				t.Fatalf("switch ingested only %d/%d datagrams", got, published)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-run; err != nil {
				t.Fatalf("Run: %v", err)
			}

			// Everything the switch will ever send is now on the wire (in
			// kernel buffers at worst); read it all back.
			delivered := 0
			eosSeen := false
			var eosSeq uint64
			buf := make([]byte, 64<<10)
			for {
				sub.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
				n, _, err := sub.ReadFromUDP(buf)
				if err != nil {
					break
				}
				var mp itch.MoldPacket
				if err := mp.Decode(buf[:n]); err != nil {
					t.Fatal(err)
				}
				switch {
				case mp.Header.IsEndOfSession():
					if eosSeen {
						t.Fatal("end-of-session announced twice")
					}
					eosSeen = true
					eosSeq = mp.Header.Sequence
				case mp.Header.IsHeartbeat():
					if eosSeen {
						t.Fatal("heartbeat after end-of-session")
					}
				default:
					if eosSeen {
						t.Fatalf("%d data messages after end-of-session", len(mp.Messages))
					}
					delivered += len(mp.Messages)
				}
			}
			if !eosSeen {
				t.Fatal("no end-of-session frame on shutdown")
			}
			// Every ingested datagram matches, so a complete drain means
			// complete delivery, and the end-of-session sequence is the
			// stream's true high-water mark.
			if delivered != published {
				t.Fatalf("delivered %d of %d ingested messages — lanes cut mid-stream", delivered, published)
			}
			if eosSeq != uint64(delivered)+1 {
				t.Fatalf("end-of-session sequence %d does not cover the %d delivered messages", eosSeq, delivered)
			}
		})
	}
}
