//go:build !linux

package dataplane

import (
	"errors"
	"net"
)

// SO_REUSEPORT lane sockets are Linux-only here; on other platforms a
// multi-lane switch binds one socket whose reader hands each datagram to
// the lane its locate selects, with the same ordering guarantees.

const reuseportOS = false

func listenReusePort(string) (*net.UDPConn, error) {
	return nil, errors.New("dataplane: SO_REUSEPORT ingress not supported on this platform")
}
