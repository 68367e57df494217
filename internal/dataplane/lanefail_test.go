package dataplane

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// TestLaneFailureSurfacesThroughRun: when a processor lane dies (panics)
// in a parallel ingress mode, Run must return an error describing the
// failure instead of deadlocking — before the fix, readers blocked
// forever handing off datagrams to the dead lane's inbox. The test
// floods the dead lane's instrument after the panic so the handoff
// channel is guaranteed to fill.
func TestLaneFailureSurfacesThroughRun(t *testing.T) {
	const poisonLocate = 0xBEEF
	for _, mode := range []IngressMode{IngressShared, IngressReusePortReshard} {
		t.Run(mode.String(), func(t *testing.T) {
			if resolveIngressMode(mode) != mode {
				t.Skipf("ingress mode %s unavailable on this platform", mode)
			}
			sub := listenUDP(t)
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Ports:         map[int]string{1: sub.LocalAddr().String()},
				Subscriptions: "stock == GOOGL : fwd(1)",
				Workers:       4,
				IngressMode:   mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			sw.procTestHook = func(lane int, datagram []byte) {
				if loc, ok := itch.FirstAddOrderLocate(datagram); ok && loc == poisonLocate {
					panic("injected lane failure")
				}
			}
			run := make(chan error, 1)
			go func() { run <- sw.Run(context.Background()) }()
			t.Cleanup(func() { sw.Close() })

			poison := func(locate uint16, seq uint64) []byte {
				var o itch.AddOrder
				o.SetStock("GOOGL")
				o.StockLocate = locate
				o.Shares = 1
				o.Price = 1
				o.Side = itch.Buy
				var mp itch.MoldPacket
				mp.Header.SetSession("LANE")
				mp.Header.Sequence = seq
				mp.Append(o.Bytes())
				return mp.Bytes()
			}

			pub, err := net.DialUDP("udp", nil, sw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { pub.Close() })
			// Kill the lane that owns poisonLocate, then flood the same
			// lane with more than a full inbox of datagrams: every one of
			// them must be drained, not wedged, and Run must report the
			// failure.
			if _, err := pub.Write(poison(poisonLocate, 1)); err != nil {
				t.Fatal(err)
			}
			seq := uint64(2)
			deadline := time.Now().Add(10 * time.Second)
		flood:
			for time.Now().Before(deadline) {
				for i := 0; i < 64; i++ {
					// Same shard key as the poison but past the hook's
					// trigger: these land in the dead lane's inbox.
					if _, err := pub.Write(poison(poisonLocate+uint16(4*len(sw.lanes)), seq)); err != nil {
						break flood // socket closed: Run is shutting down
					}
					seq++
				}
				select {
				case err := <-run:
					run <- err
					break flood
				default:
				}
			}

			select {
			case err := <-run:
				if err == nil {
					t.Fatal("Run returned nil after a lane panic")
				}
				if !strings.Contains(err.Error(), "processor failed") {
					t.Fatalf("Run error does not describe the lane failure: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("Run deadlocked after a lane panic")
			}
		})
	}
}
