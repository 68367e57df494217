package dataplane

import (
	"bytes"
	"sort"
	"testing"
)

// flatRing is the retransmission store as it was before the ring grew on
// demand: every slot of the bound allocated at bind, position seq % cap,
// and each slot storing its message's offset in the body rather than
// deriving it from the ring. It is the reference
// FuzzRetxStoreMatchesFlatRing holds retxStore to.
type flatRing struct {
	slots  []flatSlot
	bodies *sharedPool
	lo     uint64
	hi     uint64
}

// flatSlot is a message as the handle of its body and its offset in it.
type flatSlot struct {
	body uint32 // handle of the shared body the slot aliases
	off  uint32 // message start within the body, just past its length
}

// message returns the bytes at the slot's offset in its body, as many as
// the two-byte length written before them says.
func (sl flatSlot) message(bodies *sharedPool) []byte {
	b := bodies.body(sl.body).b
	n := uint32(b[sl.off-2])<<8 | uint32(b[sl.off-1])
	return b[sl.off : sl.off+n]
}

func newFlatRing(capacity int, bodies *sharedPool) *flatRing {
	return &flatRing{slots: make([]flatSlot, capacity), bodies: bodies, lo: 1, hi: 1}
}

func (s *flatRing) releaseAll() {
	for i := range s.slots {
		if h := s.slots[i].body; h != 0 {
			s.bodies.unref(s.bodies.body(h), 1)
		}
		s.slots[i] = flatSlot{}
	}
	s.lo = s.hi
}

func (s *flatRing) addSharedGroup(offs []uint32, h uint32, ev *evictAcc) {
	capacity := uint64(len(s.slots))
	for _, off := range offs {
		sl := &s.slots[s.hi%capacity]
		if sl.body != 0 {
			ev.add(sl.body)
		}
		*sl = flatSlot{body: h, off: off}
		s.hi++
	}
	if s.hi-s.lo > capacity {
		s.lo = s.hi - capacity
	}
}

func (s *flatRing) get(from uint64, count int, maxBytes int) ([][]byte, uint64) {
	start := from
	if start < s.lo {
		start = s.lo
	}
	if start >= s.hi || count <= 0 {
		return nil, s.hi
	}
	end := from + uint64(count)
	if end < from || end > s.hi {
		end = s.hi
	}
	if end <= start {
		return nil, s.hi
	}
	var out [][]byte
	bytes := 0
	for seq := start; seq < end; seq++ {
		m := s.slots[seq%uint64(len(s.slots))].message(s.bodies)
		bytes += 2 + len(m)
		if bytes > maxBytes && len(out) > 0 {
			break
		}
		out = append(out, m)
	}
	return out, start
}

// retxRing is what the differential drives: the growing ring or the
// flat one.
type retxRing interface {
	addSharedGroup(offs []uint32, h uint32, ev *evictAcc)
	releaseAll()
}

// grownRing drives a retxStore through retxRing: it is given the frame's
// message count, not the offsets, which it derives.
type grownRing struct{ *retxStore }

func (g grownRing) addSharedGroup(offs []uint32, h uint32, ev *evictAcc) {
	g.retxStore.addSharedGroup(len(offs), h, ev)
}

// newRingPool is the pool a ring of capacity slots is tested over. Its
// free lists hold fewer bodies than the ring retains, so a step that
// retires many bodies drops most of them to the collector, and the next
// bodies framed take their freed handles.
func newRingPool(capacity int) *sharedPool { return newSharedPool(capacity/4+1, 1<<17) }

// ringSide is one store under the differential with its own universe of
// shared bodies, so the two sides' reference counts can be compared body
// for body.
type ringSide struct {
	ring     retxRing
	pool     *sharedPool
	bufs     []*sharedBuf
	index    map[*sharedBuf]int
	byHandle map[uint32]int // the body a handle was last issued to
	dropped  int            // pool.handles before the latest ring call: drops beyond it are new
	spare    []*sharedBuf   // bodies recycled() took off the free lists, handles kept
}

func newRingSide(ring retxRing, pool *sharedPool) *ringSide {
	return &ringSide{ring: ring, pool: pool, index: map[*sharedBuf]int{}, byHandle: map[uint32]int{}}
}

// store frames n messages numbered from seq into a body the way
// frameGroup does — the lane's reference plus one per ring slot — and
// hands them to the ring, then drops the lane's reference. The body is a
// new one (recycled drains the free lists), or with reuse the earliest
// made of the recycled bodies that fits, as a free list would return it:
// under the handle it had in its earlier life.
func (r *ringSide) store(seq uint64, n int, offs []uint32, reuse bool) []uint32 {
	need := 20
	for i := 0; i < n; i++ {
		need += 2 + retxFuzzLen(seq+uint64(i))
	}
	var sb *sharedBuf
	if reuse {
		pick := -1
		for i, c := range r.spare {
			if cap(c.b) >= need && (pick < 0 || r.index[c] < r.index[r.spare[pick]]) {
				pick = i
			}
		}
		if pick >= 0 {
			sb = r.spare[pick]
			r.spare = append(r.spare[:pick], r.spare[pick+1:]...)
			sb.refs.Store(1)
		}
	}
	if sb == nil {
		sb = r.pool.get(need)
	}
	r.index[sb] = len(r.bufs)
	r.byHandle[sb.h] = len(r.bufs)
	r.bufs = append(r.bufs, sb)
	body := sb.b[:20]
	offs = offs[:0]
	for i := 0; i < n; i++ {
		s, ln := seq+uint64(i), retxFuzzLen(seq+uint64(i))
		body = append(body, 0, byte(ln))
		offs = append(offs, uint32(len(body)))
		for j := 0; j < ln; j++ {
			body = append(body, byte(s>>(8*j)))
		}
	}
	sb.b = body
	sb.refGroup(n)
	ev := evictAcc{pool: r.pool}
	r.dropped = len(r.pool.handles)
	r.ring.addSharedGroup(offs, sb.h, &ev)
	ev.flush()
	r.pool.unref(sb, 1)
	return offs
}

func (r *ringSide) release() {
	r.dropped = len(r.pool.handles)
	r.ring.releaseAll()
}

// recycled returns the creation indices of the bodies that lost their
// last reference in the latest ring call: those on the pool's free lists,
// which it drains, then those dropped to the collector, whose handles
// the pool freed. After an add that is the order, per size class, in
// which the ring handed handles to evictAcc.
func (r *ringSide) recycled() []int {
	var out []int
	for _, free := range r.pool.free {
		for len(free) > 0 { // nothing else sends or receives
			sb := <-free
			out = append(out, r.index[sb])
			r.spare = append(r.spare, sb)
		}
	}
	for _, h := range r.pool.handles[r.dropped:] {
		out = append(out, r.byHandle[h])
	}
	r.dropped = len(r.pool.handles)
	return out
}

// liveHandles checks p's handle table — every body it names sits at its
// own handle, no freed handle names one and none is freed twice — and
// returns the bodies it names.
func liveHandles(t *testing.T, p *sharedPool) []*sharedBuf {
	t.Helper()
	table := *p.table.Load()
	if table[0] != nil {
		t.Fatal("handle 0, the empty slot's, names a body")
	}
	freed := map[uint32]bool{}
	for _, h := range p.handles {
		if freed[h] || h == 0 || h >= p.next || table[h] != nil {
			t.Fatalf("freed handle %d is invalid, freed twice or still names a body", h)
		}
		freed[h] = true
	}
	var live []*sharedBuf
	for h, sb := range table {
		if sb == nil {
			continue
		}
		if sb.h != uint32(h) || uint32(h) >= p.next {
			t.Fatalf("handle %d names a body holding handle %d", h, sb.h)
		}
		live = append(live, sb)
	}
	if len(live)+len(freed)+1 != int(p.next) {
		t.Fatalf("%d handles issued, %d name a body and %d are free", p.next-1, len(live), len(freed))
	}
	return live
}

func retxFuzzLen(seq uint64) int { return 1 + int(seq%7) }

// retxGrowthSteps is how many rings a port may allocate after the one it
// is bound with: the growth steps from retxInitialSlots that reach max.
func retxGrowthSteps(max int) int {
	steps := 0
	for n := retxInitialSlots; n < max; n *= retxGrowth {
		steps++
	}
	return steps
}

// retxFuzzOp is one step of the differential, four bytes of fuzz input.
// kind%3: 0 add, 1 get, 2 releaseAll.
//
//	add: 1 + (a | b<<8) % (2*cap) messages, into a recycled body when
//	     c is odd and one fits
//	get: from = anchor(a%3: lo, hi, midway) + int8(b); count c (>= 250
//	     asks for 65535); maxBytes picked by kind/3
type retxFuzzOp struct{ kind, a, b, c byte }

func retxAdd(n int) retxFuzzOp { return retxFuzzOp{0, byte(n - 1), byte((n - 1) >> 8), 0} }
func retxAddReused(n int) retxFuzzOp {
	return retxFuzzOp{0, byte(n - 1), byte((n - 1) >> 8), 1}
}
func retxGet(anchor, off, count, maxSel int) retxFuzzOp {
	return retxFuzzOp{byte(1 + 3*maxSel), byte(anchor), byte(int8(off)), byte(count)}
}
func retxRelease() retxFuzzOp { return retxFuzzOp{kind: 2} }

func retxOps(ops ...retxFuzzOp) []byte {
	var out []byte
	for _, o := range ops {
		out = append(out, o.kind, o.a, o.b, o.c)
	}
	return out
}

var retxFuzzMaxBytes = [4]int{maxRetxDatagram - 20, 0, 7, 1 << 20}

// FuzzRetxStoreMatchesFlatRing drives the growing ring and the
// fixed-capacity ring it replaced through the same interleaving of
// addSharedGroup, get and releaseAll. After every step both must retain
// the same [lo, hi), return identical messages and from, have recycled
// the same bodies (after an add, in the same order) and hold every body at
// the same reference count; the growing ring must also keep its own shape (one
// flat slice no longer than the bound, handles exactly on [lo, hi)). Each
// side's pool keeps fewer free bodies than its ring retains, so retired
// bodies drop to the collector and their handles name new bodies mid-run.
func FuzzRetxStoreMatchesFlatRing(f *testing.F) {
	f.Add(uint16(1), retxOps(retxAdd(1), retxAdd(1), retxGet(0, 0, 9, 0), retxAdd(2), retxGet(0, -1, 1, 3), retxRelease(), retxAdd(1)))
	for _, c := range []uint16{63, 64, 65} {
		f.Add(c, retxOps(retxAdd(60), retxAdd(3), retxAdd(1), retxAdd(1), retxGet(0, 0, 255, 3), retxAdd(int(c)), retxGet(2, 0, 40, 0)))
	}
	// 4096: every growth step, one message at a time across a boundary,
	// then far past the bound.
	f.Add(uint16(4096), retxOps(retxAdd(64), retxAdd(1), retxAdd(191), retxAdd(1), retxAdd(767), retxAdd(1), retxAdd(3000), retxGet(0, 5, 255, 3), retxAdd(4096), retxAdd(100), retxGet(1, -100, 255, 0)))
	// A batch larger than max, on an empty ring and on a part-filled one.
	f.Add(uint16(100), retxOps(retxAdd(150), retxGet(0, 0, 255, 3), retxAdd(30), retxAdd(200), retxGet(1, -5, 10, 2)))
	// Batches that land exactly on a growth boundary: 64, 256, 1000 full.
	f.Add(uint16(1000), retxOps(retxAdd(64), retxGet(0, 0, 255, 3), retxAdd(192), retxGet(2, 0, 255, 3), retxAdd(744), retxAdd(1), retxGet(0, 0, 3, 0)))
	// Release then reuse, below and above the initial size.
	f.Add(uint16(300), retxOps(retxAdd(10), retxRelease(), retxAdd(10), retxGet(0, 0, 255, 3), retxAdd(290), retxRelease(), retxGet(0, 0, 1, 0), retxAdd(301), retxGet(0, 0, 255, 3)))
	// from below lo and at hi, before and after eviction starts.
	f.Add(uint16(70), retxOps(retxAdd(5), retxGet(0, -3, 4, 3), retxGet(1, 0, 4, 3), retxAdd(80), retxGet(0, -3, 4, 3), retxGet(1, 0, 4, 3), retxGet(1, 1, 250, 1)))
	// Handle reuse: 32 one-message bodies, all retired by one batch into a
	// pool that keeps 9, then one-message bodies on the 23 freed handles,
	// served back byte for byte.
	reuse := make([]retxFuzzOp, 0, 42)
	for i := 0; i < 32; i++ {
		reuse = append(reuse, retxAdd(1))
	}
	reuse = append(reuse, retxAdd(32), retxGet(0, 0, 255, 0))
	for i := 0; i < 6; i++ {
		reuse = append(reuse, retxAdd(1))
	}
	reuse = append(reuse, retxGet(0, 0, 255, 3), retxRelease(), retxAdd(3))
	f.Add(uint16(32), retxOps(reuse...))
	// A body recycled through a free list, handle kept, framed again into
	// the slots right after those of its earlier life: X at 1–2 (slots 1,
	// 2), Y at 3–6 retires X, X again at 7–8 (slots 3, 0) cuts Y to 5–6.
	// The ring then holds Y's last two messages, then X's two.
	f.Add(uint16(4), retxOps(retxAdd(2), retxAdd(4), retxAddReused(2), retxGet(0, 0, 255, 3), retxGet(0, 1, 255, 3), retxGet(1, -2, 255, 3), retxAddReused(3), retxGet(0, 0, 255, 0)))

	f.Fuzz(func(t *testing.T, capacity uint16, data []byte) {
		if capacity == 0 || capacity > 4096 || len(data) > 4*48 {
			t.Skip()
		}
		max := int(capacity)
		pa, pb := newRingPool(max), newRingPool(max)
		grown, flat := newRetxStore(max, pa), newFlatRing(max, pb)
		a, b := newRingSide(grownRing{grown}, pa), newRingSide(flat, pb)
		rings := 1
		var offs []uint32
		var dst [][]byte

		// ordered: the bodies must have been recycled in the same order,
		// not just be the same bodies. Eviction is in sequence order on
		// both rings; releaseAll walks slots in position order, which
		// depends on the ring's length and which nothing observes.
		check := func(step int, what string, ordered bool) {
			t.Helper()
			if grown.lo != flat.lo || grown.hi != flat.hi {
				t.Fatalf("step %d (%s): retains [%d, %d), flat ring [%d, %d)", step, what, grown.lo, grown.hi, flat.lo, flat.hi)
			}
			ra, rb := a.recycled(), b.recycled()
			if !ordered {
				sort.Ints(ra)
				sort.Ints(rb)
			}
			if len(ra) != len(rb) {
				t.Fatalf("step %d (%s): recycled bodies %v, flat ring %v", step, what, ra, rb)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("step %d (%s): recycled bodies %v, flat ring %v", step, what, ra, rb)
				}
			}
			for i := range a.bufs {
				if x, y := a.bufs[i].refs.Load(), b.bufs[i].refs.Load(); x != y {
					t.Fatalf("step %d (%s): body %d holds %d references, flat ring's %d", step, what, i, x, y)
				}
			}
			if len(grown.slots) > max {
				t.Fatalf("step %d (%s): ring of %d slots exceeds the bound %d", step, what, len(grown.slots), max)
			}
			named := 0
			for i := range grown.slots {
				if grown.slots[i].body != 0 {
					named++
				}
			}
			if uint64(named) != grown.hi-grown.lo {
				t.Fatalf("step %d (%s): %d slots name a body, [lo, hi) spans %d", step, what, named, grown.hi-grown.lo)
			}
			liveHandles(t, pa)
		}

		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op := retxFuzzOp{data[0], data[1], data[2], data[3]}
			switch op.kind % 3 {
			case 0:
				n := 1 + (int(op.a)|int(op.b)<<8)%(2*max)
				before := len(grown.slots)
				offs = a.store(grown.hi, n, offs, op.c%2 == 1)
				offs = b.store(flat.hi, n, offs, op.c%2 == 1)
				if len(grown.slots) != before {
					rings++
				}
				check(step, "add", true)
			case 1:
				anchor := [3]uint64{grown.lo, grown.hi, grown.lo + (grown.hi-grown.lo)/2}[op.a%3]
				from := int64(anchor) + int64(int8(op.b))
				if from < 0 {
					from = 0
				}
				count := int(op.c)
				if count >= 250 {
					count = 65535
				}
				maxBytes := retxFuzzMaxBytes[op.kind/3%4]
				var gotFrom uint64
				dst, gotFrom = grown.get(dst[:0], uint64(from), count, maxBytes)
				want, wantFrom := flat.get(uint64(from), count, maxBytes)
				if gotFrom != wantFrom || len(dst) != len(want) {
					t.Fatalf("step %d: get(%d, %d, %d) = %d messages from %d, flat ring %d from %d", step, from, count, maxBytes, len(dst), gotFrom, len(want), wantFrom)
				}
				for i := range want {
					if !bytes.Equal(dst[i], want[i]) {
						t.Fatalf("step %d: get(%d, %d, %d) message %d = %x, flat ring %x", step, from, count, maxBytes, i, dst[i], want[i])
					}
				}
			case 2:
				a.release()
				b.release()
				check(step, "releaseAll", false)
			}
		}

		if limit := 1 + retxGrowthSteps(max); rings > limit {
			t.Fatalf("ring allocated %d times, bound of %d allows %d", rings, max, limit)
		}
		a.release()
		b.release()
		check(-1, "final releaseAll", false)
		for i := range a.bufs {
			if n := a.bufs[i].refs.Load(); n != 0 {
				t.Fatalf("body %d still holds %d references after releaseAll", i, n)
			}
		}
	})
}
