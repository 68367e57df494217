package dataplane

import (
	"context"
	"net"
	"syscall"
	"testing"
)

// TestLaneSocketsOwnTheirPort: lane sockets asked for a kernel-chosen port
// land on a port no other socket holds. A SO_REUSEPORT bind to port 0 may
// be given a port that another group of the same user holds, and join it
// (about 1 bind in 90 with 300 such ports held), after which the kernel
// hashes one switch's publishers onto the other's sockets.
func TestLaneSocketsOwnTheirPort(t *testing.T) {
	rawReusePort := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReuseport(), 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	held := map[int]bool{}
	for i := 0; i < 300; i++ {
		pc, err := rawReusePort.ListenPacket(context.Background(), "udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		held[pc.LocalAddr().(*net.UDPAddr).Port] = true
	}
	for i := 0; i < 1000; i++ {
		c, err := listenReusePort("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		port := c.LocalAddr().(*net.UDPAddr).Port
		c.Close()
		if held[port] {
			t.Fatalf("bind %d landed on port %d, which another SO_REUSEPORT group holds", i, port)
		}
	}
}
