//go:build linux && (amd64 || arm64)

// Batched socket I/O for the dataplane hot path: recvmmsg/sendmmsg move
// a burst of datagrams per syscall, amortizing kernel-crossing cost the
// way an ASIC amortizes per-packet work across its pipeline. The fast
// path engages only on plain *net.UDPConn sockets; on fault-injection
// wrappers and in-memory test conns the reader is the portable one
// (readOne) and the writer is absent.
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

// putSockaddr encodes addr into buf and returns the sockaddr length.
func putSockaddr(buf *sockaddrBuf, addr *net.UDPAddr) (uint32, bool) {
	if ip4 := addr.IP.To4(); ip4 != nil {
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(buf))
		sa.Family = syscall.AF_INET
		sa.Port = uint16(addr.Port>>8) | uint16(addr.Port&0xff)<<8
		copy(sa.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, true
	}
	if ip6 := addr.IP.To16(); ip6 != nil {
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(buf))
		sa.Family = syscall.AF_INET6
		sa.Port = uint16(addr.Port>>8) | uint16(addr.Port&0xff)<<8
		copy(sa.Addr[:], ip6)
		return syscall.SizeofSockaddrInet6, true
	}
	return 0, false
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

// batchWriter ships egress bursts with sendmmsg. Each processing lane
// owns one (the scratch arrays are not shareable); the underlying fd is
// safe to write from any number of lanes.
type batchWriter struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []sockaddrBuf

	writeFn func(fd uintptr) bool
	req     int
	sent    int
	errno   syscall.Errno
}

// newBatchWriter returns a sendmmsg-backed writer for c, or nil when the
// socket is wrapped or the platform lacks the syscall.
func newBatchWriter(c Conn) *batchWriter {
	uc, ok := c.(*net.UDPConn)
	if !ok {
		return nil
	}
	rc, err := uc.SyscallConn()
	if err != nil {
		return nil
	}
	bw := &batchWriter{rc: rc}
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

// WriteBatch sends one datagram per entry in a single sendmmsg call and
// returns how many the kernel accepted; the caller re-invokes with the
// remainder on partial sends. A non-nil error refers to entry n.
//
// Entry i is pkts[i] alone when tails[i] is nil, or the scatter pair
// pkts[i]+tails[i] when it is not — the multicast egress shape, where
// pkts[i] is a per-port MoldUDP64 header and tails[i] a body shared by
// every member of the group. The kernel gathers the pair on the way into
// the skb, so member datagrams never exist contiguously in user memory.
//
//camus:hotpath
func (bw *batchWriter) WriteBatch(pkts, tails [][]byte, addrs []*net.UDPAddr) (int, error) {
	n := len(pkts)
	if n == 0 {
		return 0, nil
	}
	if n > len(bw.hdrs) {
		grow := n - len(bw.hdrs)
		//camus:alloc-ok scratch grows to the high-water burst size once, then is reused
		bw.hdrs = append(bw.hdrs, make([]mmsghdr, grow)...)
		bw.names = append(bw.names, make([]sockaddrBuf, grow)...) //camus:alloc-ok scratch grows to the high-water burst size once, then is reused
	}
	if 2*n > len(bw.iovs) {
		bw.iovs = append(bw.iovs, make([]syscall.Iovec, 2*n-len(bw.iovs))...) //camus:alloc-ok scratch grows to the high-water burst size once, then is reused
	}
	for i := 0; i < n; i++ {
		salen, ok := putSockaddr(&bw.names[i], addrs[i])
		if !ok {
			//camus:alloc-ok Errno is < 256, so boxing hits the runtime's static small-value cache — no heap allocation
			return 0, syscall.EINVAL
		}
		iov := &bw.iovs[2*i]
		iov.Base = &pkts[i][0]
		iov.Len = uint64(len(pkts[i]))
		h := &bw.hdrs[i].hdr
		h.Name = &bw.names[i][0]
		h.Namelen = salen
		h.Iov = iov
		h.Iovlen = 1
		if i < len(tails) && len(tails[i]) > 0 {
			tv := &bw.iovs[2*i+1]
			tv.Base = &tails[i][0]
			tv.Len = uint64(len(tails[i]))
			h.Iovlen = 2
		}
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
