package dataplane

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// TestLaneFailureSurfacesThroughRun: when a goroutine that processes dies
// (panics) — a lane's processor, or the reader of a lane that processes
// inline, which is every mode at one worker — Run must return an error
// describing the failure instead of deadlocking or killing the process.
// Before the first fix, readers blocked forever handing off datagrams to
// the dead lane's inbox; before the second, the default configuration had
// no recovery at all. The test floods the dead lane's instrument after the
// panic so a handoff channel, where there is one, is guaranteed to fill.
func TestLaneFailureSurfacesThroughRun(t *testing.T) {
	for _, mode := range []IngressMode{IngressShared, IngressReusePort, IngressReusePortReshard} {
		t.Run(mode.String(), func(t *testing.T) {
			if resolveIngressMode(mode) != mode {
				t.Skipf("ingress mode %s unavailable on this platform", mode)
			}
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
					laneFailureSurfaces(t, mode, workers)
				})
			}
		})
	}
}

func laneFailureSurfaces(t *testing.T, mode IngressMode, workers int) {
	const poisonLocate = 0xBEEF
	sub := listenUDP(t)
	sw, err := Listen(Config{
		Spec:          spec.MustParse(workload.ITCHSpecSource),
		Ports:         map[int]string{1: sub.LocalAddr().String()},
		Subscriptions: "stock == GOOGL : fwd(1)",
		Workers:       workers,
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
}

// failingConn fails its first read with a terminal (non-timeout) error.
type failingConn struct{ Conn }

var errSocketDied = errors.New("injected socket failure")

func (failingConn) ReadFromUDP([]byte) (int, *net.UDPAddr, error) { return 0, nil, errSocketDied }

// TestReaderFailureEndsRun: a terminal read error on one of several lane
// sockets must end Run with that error, as it always has on the one shared
// socket. Before the fix the failed reader exited alone and Run went on
// waiting for the others, while the kernel kept hashing flows onto a
// socket nobody read.
func TestReaderFailureEndsRun(t *testing.T) {
	for _, mode := range []IngressMode{IngressReusePort, IngressReusePortReshard} {
		t.Run(mode.String(), func(t *testing.T) {
			if resolveIngressMode(mode) != mode {
				t.Skipf("ingress mode %s unavailable on this platform", mode)
			}
			sockets := 0
			sw, err := Listen(Config{
				Spec:          spec.MustParse(workload.ITCHSpecSource),
				Subscriptions: "stock == GOOGL : fwd(1)",
				Workers:       4,
				IngressMode:   mode,
				WrapConn: func(c Conn) Conn {
					if sockets++; sockets == 2 {
						return failingConn{c}
					}
					return c
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			run := make(chan error, 1)
			go func() { run <- sw.Run(context.Background()) }()
			select {
			case err := <-run:
				if !errors.Is(err, errSocketDied) || !strings.Contains(err.Error(), "dataplane: read") {
					t.Fatalf("Run returned %v, want the lane socket's read error", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("Run outlived a dead lane socket")
			}
			if err := sw.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}
