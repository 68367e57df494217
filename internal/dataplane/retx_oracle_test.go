package dataplane

import (
	"bytes"
	"sort"
	"testing"
)

// flatRing is the retransmission store as it was before the ring grew on
// demand: every slot of the bound allocated at bind, position seq % cap.
// It is the reference FuzzRetxStoreMatchesFlatRing holds retxStore to.
type flatRing struct {
	slots []retxSlot
	lo    uint64
	hi    uint64
}

func newFlatRing(capacity int) *flatRing {
	return &flatRing{slots: make([]retxSlot, capacity), lo: 1, hi: 1}
}

func (s *flatRing) releaseAll() {
	for i := range s.slots {
		if o := s.slots[i].owner; o != nil {
			o.unref()
		}
		s.slots[i] = retxSlot{}
	}
	s.lo = s.hi
}

func (s *flatRing) addSharedGroup(spans []msgSpan, sb *sharedBuf, ev *evictAcc) {
	capacity := uint64(len(s.slots))
	for _, sp := range spans {
		sl := &s.slots[s.hi%capacity]
		if o := sl.owner; o != nil {
			ev.add(o)
		}
		sl.owner = sb
		sl.off = sp.off
		sl.ln = sp.ln
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
		sl := s.slots[seq%uint64(len(s.slots))]
		m := sl.owner.b[sl.off : sl.off+sl.ln]
		bytes += 2 + len(m)
		if bytes > maxBytes && len(out) > 0 {
			break
		}
		out = append(out, m)
	}
	return out, start
}

// ringSide is one store under the differential with its own universe of
// shared bodies, so the two sides' reference counts can be compared body
// for body.
type ringSide struct {
	add     func([]msgSpan, *sharedBuf, *evictAcc)
	release func()
	pool    *sharedPool
	bufs    []*sharedBuf
	index   map[*sharedBuf]int
}

func newRingSide(capacity int, add func([]msgSpan, *sharedBuf, *evictAcc), release func()) *ringSide {
	return &ringSide{
		add: add, release: release,
		pool:  newSharedPool(2*capacity+2, 1<<17),
		index: map[*sharedBuf]int{},
	}
}

// store frames n messages numbered from seq into a fresh body the way
// frameGroup does — the lane's reference plus one per ring slot — and
// hands them to the ring, then drops the lane's reference.
func (r *ringSide) store(seq uint64, n int, spans []msgSpan) []msgSpan {
	need := 20
	for i := 0; i < n; i++ {
		need += 2 + retxFuzzLen(seq+uint64(i))
	}
	sb := r.pool.get(need)
	r.index[sb] = len(r.bufs)
	r.bufs = append(r.bufs, sb)
	body := sb.b[:20]
	spans = spans[:0]
	for i := 0; i < n; i++ {
		s, ln := seq+uint64(i), retxFuzzLen(seq+uint64(i))
		body = append(body, 0, byte(ln))
		spans = append(spans, msgSpan{off: uint32(len(body)), ln: uint32(ln)})
		for j := 0; j < ln; j++ {
			body = append(body, byte(s>>(8*j)))
		}
	}
	sb.b = body
	sb.refGroup(n)
	var ev evictAcc
	r.add(spans, sb, &ev)
	ev.flush()
	sb.unref()
	return spans
}

// recycled drains the pool's free lists and returns the creation indices
// of the bodies on them: the order in which bodies lost their last
// reference, which after an add is the order the ring handed owners to
// evictAcc.
func (r *ringSide) recycled() []int {
	var out []int
	for _, free := range r.pool.free {
		for len(free) > 0 { // nothing else sends or receives
			out = append(out, r.index[<-free])
		}
	}
	return out
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
//	add: 1 + (a | b<<8) % (2*cap) messages
//	get: from = anchor(a%3: lo, hi, midway) + int8(b); count c (>= 250
//	     asks for 65535); maxBytes picked by kind/3
type retxFuzzOp struct{ kind, a, b, c byte }

func retxAdd(n int) retxFuzzOp { return retxFuzzOp{0, byte(n - 1), byte((n - 1) >> 8), 0} }
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
// flat slice no longer than the bound, owners exactly on [lo, hi)).
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

	f.Fuzz(func(t *testing.T, capacity uint16, data []byte) {
		if capacity == 0 || capacity > 4096 || len(data) > 4*48 {
			t.Skip()
		}
		max := int(capacity)
		grown, flat := newRetxStore(max), newFlatRing(max)
		a := newRingSide(max, grown.addSharedGroup, grown.releaseAll)
		b := newRingSide(max, flat.addSharedGroup, flat.releaseAll)
		rings := 1
		var spans []msgSpan
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
			owned := 0
			for i := range grown.slots {
				if grown.slots[i].owner != nil {
					owned++
				}
			}
			if uint64(owned) != grown.hi-grown.lo {
				t.Fatalf("step %d (%s): %d slots own a body, [lo, hi) spans %d", step, what, owned, grown.hi-grown.lo)
			}
		}

		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			op := retxFuzzOp{data[0], data[1], data[2], data[3]}
			switch op.kind % 3 {
			case 0:
				n := 1 + (int(op.a)|int(op.b)<<8)%(2*max)
				before := len(grown.slots)
				spans = a.store(grown.hi, n, spans)
				spans = b.store(flat.hi, n, spans)
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
