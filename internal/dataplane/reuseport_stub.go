//go:build !linux

package dataplane

import (
	"errors"
	"net"
)

// SO_REUSEPORT lane sockets are Linux-only here; on other platforms the
// reuseport modes resolve to the shared topology (one socket, owner by
// locate), which is portable and preserves the same ordering guarantees.

const reuseportOS = false

func listenReusePort(string) (*net.UDPConn, error) {
	return nil, errors.New("dataplane: SO_REUSEPORT ingress not supported on this platform")
}
