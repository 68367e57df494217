package main

import (
	"fmt"
	"math/bits"
)

// verdict is the oracle's account of a run. One operation is one
// (message, probe) delivery that was expected or happened.
type verdict struct {
	attempted, failed uint64

	missing      uint64 // expected, not delivered even after retransmission recovery
	misdelivered uint64 // delivered to a probe the table does not send it to
	duplicated   uint64
	reordered    uint64
	gapLost      uint64 // reported unrecoverable by a Receiver (also counted missing)
	unaccounted  uint64 // stateful: the switch's forwarded count and the probes' disagree
}

func (v verdict) String() string {
	return fmt.Sprintf("attempted=%d failed=%d (missing=%d misdelivered=%d duplicated=%d reordered=%d gap-lost=%d unaccounted=%d)",
		v.attempted, v.failed, v.missing, v.misdelivered, v.duplicated, v.reordered, v.gapLost, v.unaccounted)
}

// check judges every message the publisher sent against what the probes
// delivered. Call it after close: the probes' state is then quiescent.
//
// Stateless workloads have an exact expectation per message from the
// generator table; a message sent while an update was in flight may follow
// the old table or the new one, but not a mix of the two. itch-stateful
// depends on wall-clock windows, so there the check is conservation: no
// message reaches both pass and scrub, and the probes together delivered
// exactly what the switch says it forwarded.
func (h *harness) check() verdict {
	var v verdict
	for _, p := range h.probes {
		v.duplicated += p.dups
		v.reordered += p.reordered
		v.gapLost += p.gapLost
	}
	if h.w.stateful {
		var delivered uint64
		for _, p := range h.probes {
			delivered += p.delivered - p.dups
		}
		for g := uint64(0); g < h.sent*msgsPerDgram; g++ {
			if h.probes[0].has(g) && h.probes[1].has(g) {
				v.misdelivered++
			}
		}
		// Every marker is forwarded once and delivered to both probes,
		// and is not in the probes' delivered count.
		forwarded := h.sw.Metric("camus_dataplane_matched_total") - h.markers
		v.attempted = forwarded
		if forwarded > delivered {
			v.unaccounted = forwarded - delivered
			v.missing = v.unaccounted
		} else {
			v.unaccounted = delivered - forwarded
		}
		v.failed = v.unaccounted + v.misdelivered + v.duplicated + v.reordered
		return v
	}

	e := 0
	for d := uint64(0); d < h.sent; d++ {
		for e+1 < len(h.epochs) && h.epochs[e+1].d <= d {
			e++
		}
		ep := h.epochs[e]
		for k := uint64(0); k < msgsPerDgram; k++ {
			g := d*msgsPerDgram + k
			var got uint8
			for i, p := range h.probes {
				if p.has(g) {
					got |= 1 << i
				}
			}
			t := (d%templates)*msgsPerDgram + k
			want := h.in.sets[ep.a].masks[t]
			if alt := h.in.sets[ep.b].masks[t]; bits.OnesCount8(got^alt) < bits.OnesCount8(got^want) {
				want = alt
			}
			v.attempted += uint64(bits.OnesCount8(want | got))
			v.missing += uint64(bits.OnesCount8(want &^ got))
			v.misdelivered += uint64(bits.OnesCount8(got &^ want))
		}
	}
	v.failed = v.missing + v.misdelivered + v.duplicated + v.reordered
	return v
}
