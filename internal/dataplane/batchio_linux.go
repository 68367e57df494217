//go:build linux && (amd64 || arm64)

// Batched socket I/O for the dataplane hot path: recvmmsg/sendmmsg move
// a burst of datagrams per syscall, amortizing kernel-crossing cost the
// way an ASIC amortizes per-packet work across its pipeline. The fast
// path engages only on plain *net.UDPConn sockets with batching on; on
// fault-injection wrappers, in-memory test conns and at Batch 1 the same
// reader and writer types run the portable one-datagram calls (readOne,
// writeOne).
//
// Everything here uses only the standard library: raw syscalls through
// (*net.UDPConn).SyscallConn so the runtime netpoller still owns
// blocking, deadlines, and close semantics.

package dataplane

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr (linux/amd64 and arm64
// share the layout): a msghdr plus the kernel-reported datagram length.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sockaddrBuf holds either an IPv4 or IPv6 raw sockaddr.
type sockaddrBuf [syscall.SizeofSockaddrInet6]byte

// putSockaddr encodes addr for a socket of the given family the way
// package net does for WriteToUDP (no IP is the family's zero address, an
// IPv4 address on an IPv6 socket is v4-mapped), so both writers accept the
// same addresses. ok is false for an address the family cannot carry.
func putSockaddr(buf *sockaddrBuf, addr *net.UDPAddr, v4 bool) (uint32, bool) {
	ip := addr.IP
	port := uint16(addr.Port>>8) | uint16(addr.Port&0xff)<<8
	if v4 {
		if len(ip) == 0 {
			ip = net.IPv4zero
		}
		ip4 := ip.To4()
		if ip4 == nil {
			return 0, false
		}
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(buf))
		sa.Family = syscall.AF_INET
		sa.Port = port
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, true
	}
	if len(ip) == 0 || ip.Equal(net.IPv4zero) {
		ip = net.IPv6zero
	}
	ip6 := ip.To16()
	if ip6 == nil {
		return 0, false
	}
	sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(buf))
	sa.Family = syscall.AF_INET6
	sa.Port = port
	copy(sa.Addr[:], ip6)
	return syscall.SizeofSockaddrInet6, true
}

// batchReader drains an ingress socket: with recvmmsg when rc is set,
// one portable read per batch otherwise.
type batchReader struct {
	conn  Conn // portable path only
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []sockaddrBuf

	// readFn is allocated once; req/got/errno carry its arguments and
	// results so the hot loop stays allocation-free.
	readFn func(fd uintptr) bool
	req    int
	got    int
	errno  syscall.Errno
}

// newBatchReader returns a reader for c and how many datagrams one
// ReadBatch can return: a recvmmsg-backed reader of batch, or the portable
// reader of one when c is not a plain *net.UDPConn (fault-injection
// wrappers, in-memory test conns) or batching is disabled.
func newBatchReader(c Conn, batch int) (*batchReader, int) {
	uc, ok := c.(*net.UDPConn)
	if !ok || batch <= 1 {
		return &batchReader{conn: c}, 1
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return &batchReader{conn: c}, 1
	}
	br := &batchReader{
		rc:    rc,
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		names: make([]sockaddrBuf, batch),
	}
	br.readFn = func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&br.hdrs[0])), uintptr(br.req), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // wait for readability in the netpoller
		}
		br.errno = errno
		br.got = int(r)
		return true
	}
	return br, batch
}

// ReadBatch blocks until at least one datagram arrives, then fills bufs
// with up to min(len(bufs), batch) datagrams in one recvmmsg call and
// records each datagram's length in sizes.
//
//camus:hotpath
func (br *batchReader) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	if br.rc == nil {
		return readOne(br.conn, bufs, sizes)
	}
	n := len(bufs)
	if n > len(br.hdrs) {
		n = len(br.hdrs)
	}
	for i := 0; i < n; i++ {
		br.iovs[i].Base = &bufs[i][0]
		br.iovs[i].Len = uint64(len(bufs[i]))
		h := &br.hdrs[i].hdr
		h.Name = &br.names[i][0]
		h.Namelen = uint32(len(br.names[i]))
		h.Iov = &br.iovs[i]
		h.Iovlen = 1
	}
	br.req, br.got, br.errno = n, 0, 0
	if err := br.rc.Read(br.readFn); err != nil {
		return 0, err
	}
	if br.errno != 0 {
		//camus:alloc-ok Errno is < 256, so boxing hits the runtime's static small-value cache — no heap allocation
		return 0, br.errno
	}
	for i := 0; i < br.got; i++ {
		sizes[i] = int(br.hdrs[i].n)
	}
	return br.got, nil
}

// batchWriter ships a lane's egress: with sendmmsg when rc is set, one
// portable write per batch otherwise. Each processing lane owns one (the
// scratch arrays are not shareable); the underlying fd is safe to write
// from any number of lanes.
type batchWriter struct {
	conn  Conn // portable path only
	rc    syscall.RawConn
	v4    bool // the socket's family is AF_INET, not AF_INET6
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []sockaddrBuf

	writeFn func(fd uintptr) bool
	req     int
	sent    int
	errno   syscall.Errno
}

// newBatchWriter returns the egress writer for c: sendmmsg-backed, or the
// portable writer when c is not a plain *net.UDPConn (fault-injection
// wrappers, in-memory test conns) or batching is disabled.
func newBatchWriter(c Conn, batch int) *batchWriter {
	bw := &batchWriter{conn: c}
	uc, ok := c.(*net.UDPConn)
	if !ok || batch <= 1 {
		return bw
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return bw
	}
	bw.rc = rc
	bw.v4 = uc.LocalAddr().(*net.UDPAddr).IP.To4() != nil
	bw.writeFn = func(fd uintptr) bool {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&bw.hdrs[0])), uintptr(bw.req), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // wait for writability
		}
		bw.errno = errno
		bw.sent = int(r)
		return true
	}
	return bw
}

// WriteBatch sends a prefix of the entries, one datagram each — as many as
// the kernel takes in one sendmmsg call, or one on the portable path — and
// returns how many went out; the caller re-invokes with the remainder. A
// non-nil error refers to the entry at the returned count, and a nil one
// comes with a count above zero.
//
// An entry goes out as the scatter pair hdr + body[len(hdr):], skipping
// the body's scratch header region. The kernel gathers the pair on the way
// into the skb, so member datagrams never exist contiguously in user
// memory.
//
//camus:hotpath
func (bw *batchWriter) WriteBatch(out []wireEntry) (int, error) {
	if bw.rc == nil {
		return writeOne(bw.conn, out)
	}
	n := len(out)
	if n > len(bw.hdrs) {
		grow := n - len(bw.hdrs)
		//camus:alloc-ok scratch grows to the high-water burst size once, then is reused
		bw.hdrs = append(bw.hdrs, make([]mmsghdr, grow)...)
		bw.names = append(bw.names, make([]sockaddrBuf, grow)...)   //camus:alloc-ok scratch grows to the high-water burst size once, then is reused
		bw.iovs = append(bw.iovs, make([]syscall.Iovec, 2*grow)...) //camus:alloc-ok scratch grows to the high-water burst size once, then is reused
	}
	for i := 0; i < n; i++ {
		e := &out[i]
		salen, ok := putSockaddr(&bw.names[i], e.addr, bw.v4)
		if !ok {
			if i == 0 {
				//camus:alloc-ok Errno is < 256, so boxing hits the runtime's static small-value cache — no heap allocation
				return 0, syscall.EINVAL
			}
			n = i // send what precedes the bad address; the next call names it
			break
		}
		body := e.body[len(e.hdr):]
		hv, bv := &bw.iovs[2*i], &bw.iovs[2*i+1]
		hv.Base = &e.hdr[0]
		hv.Len = uint64(len(e.hdr))
		bv.Base = &body[0]
		bv.Len = uint64(len(body))
		h := &bw.hdrs[i].hdr
		h.Name = &bw.names[i][0]
		h.Namelen = salen
		h.Iov = hv
		h.Iovlen = 2
	}
	bw.req, bw.sent, bw.errno = n, 0, 0
	if err := bw.rc.Write(bw.writeFn); err != nil {
		return 0, err
	}
	if bw.errno != 0 {
		//camus:alloc-ok Errno is < 256, so boxing hits the runtime's static small-value cache — no heap allocation
		return 0, bw.errno
	}
	return bw.sent, nil
}
