package dataplane

import (
	"math/bits"
	"sync"
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
// retransmission ring retains the body, one slot per message.
//
// Lifetime is reference counted: the encoding lane holds one reference
// for the duration of the batch's sends, and every retransmission ring
// slot that aliases the body holds one more. The buffer returns to its
// pool when the last reference drops (sharedPool.unref) — which is when
// no ring can still serve bytes from it, so recycling can never corrupt a
// pending retransmission. It names no pool: every body of a switch is its
// one pool's, and a ring retains one per frame, so 32 B beats 48.
type sharedBuf struct {
	b    []byte
	refs atomic.Int32
	h    uint32 // the body's handle in its pool's table, held for its whole life
}

// refGroup takes n references at once — one per ring slot a member port
// is about to fill — so the hot path pays a single atomic per (port,
// body) instead of one per message.
//
//camus:hotpath
func (sb *sharedBuf) refGroup(n int) { sb.refs.Add(int32(n)) }

// unref drops n of sb's references at once — one for the lane's, the
// counterpart of refGroup when a ring evicts a run of slots that alias
// the same body — recycling it on the last drop.
//
//camus:hotpath
func (p *sharedPool) unref(sb *sharedBuf, n int32) {
	if sb.refs.Add(-n) == 0 {
		p.put(sb)
	}
}

// evictAcc coalesces reference drops for bodies evicted from many
// retransmission rings during one datagram. Consecutive evictions almost
// always retire the same body (each member of a group holds views of the
// same earlier bodies in the same ring order), so the run-length fast
// path collapses them into one atomic — and one lookup of the handle.
// Delaying the drop is safe: it only postpones the body's return to the
// free list, and a body with references pending keeps its handle.
type evictAcc struct {
	pool *sharedPool
	h    uint32 // handle of the body the run retires; 0 for none
	n    int32
}

//camus:hotpath
func (a *evictAcc) add(h uint32) {
	if h == a.h {
		a.n++
		return
	}
	a.flush()
	a.h, a.n = h, 1
}

//camus:hotpath
func (a *evictAcc) flush() {
	if a.h != 0 {
		a.pool.unref(a.pool.body(a.h), a.n)
		a.h, a.n = 0, 0
	}
}

// minBodyClass is the smallest body capacity. A one-message frame (20-byte
// header region + 2 + 36) fits, so a ring fed one message per datagram
// pins 64 B of body per slot, not a multicast-sized buffer.
const minBodyClass = 64

// classOf returns the index k of the smallest class that holds need
// bytes. The classes are minBodyClass<<m (k = 2m) and one and a half
// times it (k = 2m+1) — 64, 96, 128, 192, ... — so a body wastes under a
// third of its bytes, not half: a frame's size follows how many of a
// batch's messages its bucket took, and a ring retains one body a frame.
//
//camus:hotpath
func classOf(need int) int {
	if need <= minBodyClass {
		return 0
	}
	c := bits.Len(uint(need - 1)) // 1<<(c-1) < need <= 1<<c
	k := 2 * (c - bits.Len(minBodyClass-1))
	if need <= 3<<(c-2) {
		k--
	}
	return k
}

// bodyClass rounds need up to its class's capacity; rounding makes any
// recycled body of a class fit any need of that class.
func bodyClass(need int) int {
	k := classOf(need)
	if k%2 == 1 {
		return minBodyClass * 3 / 2 << (k / 2)
	}
	return minBodyClass << (k / 2)
}

// sharedPool is the bounded free lists sharedBufs circulate through, one
// per size class, so a list only ever returns bodies of its class — and
// the table that names every body it made by a 4-byte handle, so a ring
// slot holds a handle instead of a pointer.
//
// A body takes its handle when it is allocated and keeps it while it
// circulates; the handle is freed for reuse only when the body drops to
// the collector, when its count is 0 and no ring slot can name it. The
// table is read without a lock: a reader got its handle, under a port
// lock or from the lane that framed the body, after the handle was
// written, so the table it loads holds it. Only a pool miss and a drop
// write it, under mu: a leaf lock, taken under sw.mu and portState.mu,
// that takes no other.
type sharedPool struct {
	free  []chan *sharedBuf
	table atomic.Pointer[[]*sharedBuf] // handle -> body; [0] is nil, the empty slot's

	mu      sync.Mutex
	handles []uint32 // handles of bodies dropped to the collector
	next    uint32   // the lowest handle never issued
}

// newSharedPool builds the lists for bodies of up to maxBody bytes: the
// read buffer, since a body re-frames a subset of one ingress datagram's
// messages and is never longer than the datagram.
func newSharedPool(capacity, maxBody int) *sharedPool {
	p := &sharedPool{free: make([]chan *sharedBuf, classOf(maxBody)+1), next: 1}
	for k := range p.free {
		p.free[k] = make(chan *sharedBuf, capacity)
	}
	table := make([]*sharedBuf, 64)
	p.table.Store(&table)
	return p
}

// body returns the body handle h names. h must be held: by a ring slot
// under its port's lock, or by a caller holding a reference.
//
//camus:hotpath
func (p *sharedPool) body(h uint32) *sharedBuf { return (*p.table.Load())[h] }

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
	sb := &sharedBuf{b: make([]byte, 0, bodyClass(need))}
	sb.refs.Store(1)
	//camus:alloc-ok pool miss: the handle table doubles at most log2(bodies) times in the pool's life
	p.issue(sb)
	return sb
}

// issue gives a new body a handle: one a dropped body freed, else the
// next never issued, doubling the table when it is full. The doubled
// table is published whole, so a lock-free reader sees the old one or
// the new one, and either holds every handle issued before it.
func (p *sharedPool) issue(sb *sharedBuf) {
	p.mu.Lock()
	defer p.mu.Unlock()
	table := *p.table.Load()
	if n := len(p.handles); n > 0 {
		sb.h = p.handles[n-1]
		p.handles = p.handles[:n-1]
	} else {
		if int(p.next) == len(table) {
			grown := make([]*sharedBuf, 2*len(table))
			copy(grown, table)
			p.table.Store(&grown)
			table = grown
		}
		sb.h = p.next
		p.next++
	}
	table[sb.h] = sb
}

// put recycles a buffer onto its class's list. If the list is full the
// buffer drops to the collector and its handle is freed.
//
//camus:hotpath
func (p *sharedPool) put(sb *sharedBuf) {
	sb.b = sb.b[:0]
	select {
	case p.free[classOf(cap(sb.b))] <- sb:
		return
	default:
	}
	p.mu.Lock()
	(*p.table.Load())[sb.h] = nil
	p.handles = append(p.handles, sb.h)
	p.mu.Unlock()
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
