package netsim

import (
	"fmt"
	"testing"
	"time"

	"camus/internal/faults"
)

// faultyLink is a 10 Gb/s link to nowhere under plan; the tests drive it
// with carry, which is Send without a Packet.
func faultyLink(sim *Sim, propagation time.Duration, plan faults.Plan) *Link {
	return NewLink(sim, 10, propagation, nil).Lossy(&plan, 0)
}

func TestFaultyLinkDrop(t *testing.T) {
	sim := NewSim()
	fl := faultyLink(sim, time.Microsecond, faults.Plan{Seed: 2, Drop: 0.5})
	delivered := 0
	for i := 0; i < 1000; i++ {
		fl.carry(100, func() { delivered++ })
	}
	sim.Run()
	st := fl.Stats
	if st.Offered != 1000 || st.Dropped == 0 {
		t.Fatalf("stats %+v", st)
	}
	if uint64(delivered) != 1000-st.Dropped || st.Delivered != uint64(delivered) {
		t.Fatalf("delivered %d, dropped %d, ledger %+v", delivered, st.Dropped, st)
	}
	if delivered < 300 || delivered > 700 {
		t.Fatalf("delivered %d, want ~500", delivered)
	}
	checkLink(t, fl)
}

func TestFaultyLinkDuplicate(t *testing.T) {
	sim := NewSim()
	fl := faultyLink(sim, time.Microsecond, faults.Plan{Seed: 1, Duplicate: 1})
	delivered := 0
	for i := 0; i < 10; i++ {
		fl.carry(100, func() { delivered++ })
	}
	sim.Run()
	if delivered != 20 {
		t.Fatalf("delivered %d, want 20 (every packet duplicated)", delivered)
	}
	checkLink(t, fl)
}

func TestFaultyLinkReorderSwapsNeighbors(t *testing.T) {
	sim := NewSim()
	fl := faultyLink(sim, time.Microsecond, faults.Plan{Seed: 1, Reorder: 1})
	var got []int
	for i := 0; i < 6; i++ {
		fl.carry(100, func() { got = append(got, i) })
	}
	sim.Run()
	want := []int{1, 0, 3, 2, 5, 4}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
	checkLink(t, fl)
}

func TestFaultyLinkReorderReleasesTail(t *testing.T) {
	// A held packet with no successor must still arrive via the timed
	// release — a reordered tail is late, never lost.
	sim := NewSim()
	fl := faultyLink(sim, time.Microsecond, faults.Plan{Seed: 1, Reorder: 1})
	delivered := false
	fl.carry(100, func() { delivered = true })
	sim.Run()
	if !delivered {
		t.Fatal("reordered tail packet was stranded")
	}
	checkLink(t, fl)
}

func TestFaultyLinkDelay(t *testing.T) {
	sim := NewSim()
	fl := faultyLink(sim, 0, faults.Plan{Seed: 1, Delay: 1, DelayBy: time.Millisecond})
	var at time.Duration
	fl.carry(100, func() { at = sim.Now() })
	sim.Run()
	if at < time.Millisecond {
		t.Fatalf("delivered at %v, want >= 1ms extra delay", at)
	}
	checkLink(t, fl)
}

// TestRecoveringLinkRedeliversOnce: under the recovering policy a dropped
// packet reaches the far end exactly once, one recovery round trip late,
// and the retransmission is paid for in RetxBytes; a duplicate burns wire
// bytes but arrives once.
func TestRecoveringLinkRedeliversOnce(t *testing.T) {
	const recovery = 50 * time.Microsecond
	sim := NewSim()
	// 10 Gb/s: 100 bytes serialize in 80ns; 1µs propagation.
	plan := faults.Plan{DropIf: func(i uint64) bool { return i == 1 }}
	l := NewLink(sim, 10, time.Microsecond, nil).Recovering(&plan, 0, recovery)
	arrivals := make([][]time.Duration, 3)
	for i := range arrivals {
		l.carry(100, func() { arrivals[i] = append(arrivals[i], sim.Now()) })
	}
	sim.Run()

	const wire, prop = 80 * time.Nanosecond, time.Microsecond
	want := []time.Duration{
		wire + prop,            // clean
		recovery + wire + prop, // the original died; the retransmit finds an idle link
		3*wire + prop,          // queued behind both earlier transmissions
	}
	for i, got := range arrivals {
		if len(got) != 1 || got[0] != want[i] {
			t.Fatalf("packet %d arrived at %v, want once at %v", i, got, want[i])
		}
	}
	if s := l.Stats; s.Recovered != 1 || s.Dropped != 0 || s.RetxBytes != 100 || s.Bytes != 300 {
		t.Fatalf("ledger %+v, want one recovery costing 100 retransmitted bytes", s)
	}
	checkLink(t, l)

	dup := NewLink(sim, 10, time.Microsecond, nil).Recovering(&faults.Plan{Duplicate: 1}, 0, recovery)
	n := 0
	for i := 0; i < 10; i++ {
		dup.carry(100, func() { n++ })
	}
	sim.Run()
	if n != 10 || dup.Stats.Duplicated != 10 || dup.Stats.RetxBytes != 1000 {
		t.Fatalf("delivered %d of 10 duplicated packets, ledger %+v", n, dup.Stats)
	}
	checkLink(t, dup)
}
