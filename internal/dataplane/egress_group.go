package dataplane

import (
	"math/bits"
	"sync/atomic"
)

// sharedPoolCapacity bounds each size class's free list of recycled
// bodies. Like the ingress dgramPool a list is a plain channel, not a
// sync.Pool: the working set survives GC cycles, so steady-state allocs
// stay at zero. Buffers beyond the bound are simply dropped to the GC.
const sharedPoolCapacity = 1024

// sharedBuf is one bucket's encoded egress frame, shared by every member
// port of the bucket's action (one port for a single-port action): the
// header region ([0:MoldHeaderLen)) is scratch — the sendmmsg writer
// skips it and pairs the body with per-port headers, the portable writer
// patches each header into it between writes — and each member's
// retransmission ring retains per-message views into the body region.
//
// Lifetime is reference counted: the encoding lane holds one reference
// for the duration of the datagram's sends, and every retransmission
// ring slot that aliases the body holds one more. The buffer returns to
// the pool when the last reference drops — which is when no ring can
// still serve bytes from it, so recycling can never corrupt a pending
// retransmission.
type sharedBuf struct {
	b    []byte
	refs atomic.Int32
	pool *sharedPool
}

// refGroup takes n references at once — one per ring slot a member port
// is about to fill — so the hot path pays a single atomic per (port,
// body) instead of one per message.
func (sb *sharedBuf) refGroup(n int) { sb.refs.Add(int32(n)) }

// unref drops one reference, recycling the buffer on the last drop.
func (sb *sharedBuf) unref() { sb.unrefN(1) }

// unrefN drops n references at once — the counterpart of refGroup when a
// ring evicts a whole batch of slots that alias the same body.
func (sb *sharedBuf) unrefN(n int32) {
	if sb.refs.Add(-n) == 0 {
		sb.pool.put(sb)
	}
}

// evictAcc coalesces reference drops for bodies evicted from many
// retransmission rings during one datagram. Consecutive evictions almost
// always retire the same body (each member of a group holds views of the
// same earlier bodies in the same ring order), so the run-length fast
// path collapses them into one atomic. Delaying the drop is safe: it
// only postpones the body's return to the free list.
type evictAcc struct {
	owner *sharedBuf
	n     int32
}

func (a *evictAcc) add(o *sharedBuf) {
	if o == a.owner {
		a.n++
		return
	}
	if a.owner != nil {
		a.owner.unrefN(a.n)
	}
	a.owner, a.n = o, 1
}

func (a *evictAcc) flush() {
	if a.owner != nil {
		a.owner.unrefN(a.n)
		a.owner, a.n = nil, 0
	}
}

// minBodyClass is the smallest body capacity. A one-message frame (20-byte
// header region + 2 + 36) fits, so a ring fed one message per datagram
// pins 64 B of body per slot, not a multicast-sized buffer.
const minBodyClass = 64

// classOf returns the index k of the smallest class, minBodyClass<<k,
// that holds need bytes.
func classOf(need int) int {
	if need <= minBodyClass {
		return 0
	}
	return bits.Len(uint(need-1)) - bits.Len(minBodyClass-1)
}

// bodyClass rounds need up to its class's capacity. Bodies vary with how
// many of a datagram's messages hit the bucket; rounding makes any
// recycled body of a class fit any need of that class.
func bodyClass(need int) int { return minBodyClass << classOf(need) }

// sharedPool is the bounded free lists sharedBufs circulate through, one
// per size class, so a list only ever returns bodies of its class.
type sharedPool struct {
	free []chan *sharedBuf
}

// newSharedPool builds the lists for bodies of up to maxBody bytes: the
// read buffer, since a body re-frames a subset of one ingress datagram's
// messages and is never longer than the datagram.
func newSharedPool(capacity, maxBody int) *sharedPool {
	p := &sharedPool{free: make([]chan *sharedBuf, classOf(maxBody)+1)}
	for k := range p.free {
		p.free[k] = make(chan *sharedBuf, capacity)
	}
	return p
}

// get returns an empty buffer of need's size class holding one reference
// (the caller's).
//
//camus:hotpath
func (p *sharedPool) get(need int) *sharedBuf {
	select {
	case sb := <-p.free[classOf(need)]:
		sb.refs.Store(1)
		return sb
	default:
	}
	//camus:alloc-ok pool miss grows the working set once; the steady state recycles
	sb := &sharedBuf{b: make([]byte, 0, bodyClass(need)), pool: p}
	sb.refs.Store(1)
	return sb
}

// put recycles a buffer onto its class's list, dropping it if the list is
// full.
//
//camus:hotpath
func (p *sharedPool) put(sb *sharedBuf) {
	sb.b = sb.b[:0]
	select {
	case p.free[classOf(cap(sb.b))] <- sb:
	default:
	}
}

// writeOne is the portable writer: the first entry's header is patched
// into its buffer's scratch region and the buffer leaves whole in one
// WriteToUDP, a batch of one. Patching in place is safe because only the
// lane that encoded a buffer sends from it and the rings alias only the
// body. It is the only writer on platforms without sendmmsg, on
// fault-injection wrapped sockets and when batching is off. An error
// refers to that first entry.
//
//camus:hotpath
func writeOne(c Conn, out []wireEntry) (int, error) {
	e := &out[0]
	copy(e.body, e.hdr[:])
	if _, err := c.WriteToUDP(e.body, e.addr); err != nil {
		return 0, err
	}
	return 1, nil
}
