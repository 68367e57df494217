//go:build linux

// SO_REUSEPORT ingress sockets: every shard lane binds its own UDP
// socket to the same address, and the kernel's flow hash spreads
// publisher flows across the lane sockets — per-port ingress
// parallelism, the software analogue of the ASIC's per-port ingress
// pipelines. Only the standard library is used: the option is set from
// net.ListenConfig.Control before bind, alongside the batchio_linux.go
// pattern (build-tagged syscall use, portable stub elsewhere).

package dataplane

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
)

// reuseportOS reports whether this build can bind SO_REUSEPORT sockets.
const reuseportOS = true

// soReuseport is SO_REUSEPORT's value, which the syscall package does
// not export: 15 on every Linux architecture except the MIPS family,
// whose socket option numbering is inherited from IRIX.
func soReuseport() int {
	switch runtime.GOARCH {
	case "mips", "mipsle", "mips64", "mips64le":
		return 0x200
	}
	return 0xf
}

// listenReusePort binds one UDP socket to addr with SO_REUSEPORT set, so
// any number of lane sockets can share the address and the kernel
// flow-hashes arriving datagrams across them.
func listenReusePort(addr string) (*net.UDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	if ua.Port == 0 {
		// The kernel may pick, for a SO_REUSEPORT socket, a port that
		// another SO_REUSEPORT group of the same user holds, and join it;
		// for a plain socket it picks a port no socket holds.
		probe, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, err
		}
		ua = probe.LocalAddr().(*net.UDPAddr)
		probe.Close()
	}
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReuseport(), 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", ua.String())
	if err != nil {
		return nil, err
	}
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("dataplane: reuseport listener is %T, not *net.UDPConn", pc)
	}
	return uc, nil
}
