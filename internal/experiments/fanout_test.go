package experiments

import "testing"

// TestDataplaneFanoutSmoke runs a small subscriber-count sweep end to
// end: both points populate and the group engine actually encodes shared
// bodies.
func TestDataplaneFanoutSmoke(t *testing.T) {
	pts, err := DataplaneFanout(EgressFanoutConfig{
		Ports:   []int{40, 80},
		Groups:  8,
		Packets: 2500,
		Batch:   8,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for i, want := range []struct{ ports, fanout int }{{40, 5}, {80, 10}} {
		p := pts[i]
		if p.Ports != want.ports || p.Fanout != want.fanout || p.Groups != 8 {
			t.Fatalf("point %d: ports=%d fanout=%d groups=%d, want %d/%d/8",
				i, p.Ports, p.Fanout, p.Groups, want.ports, want.fanout)
		}
		if p.Packets != 2500 {
			t.Fatalf("point %d processed %d packets, want 2500", i, p.Packets)
		}
		if p.Matched == 0 || p.Forwarded == 0 {
			t.Fatalf("point %d: no traffic (matched=%d fwd=%d)", i, p.Matched, p.Forwarded)
		}
		// Every matched message fans out to its whole group, so egress
		// datagram sends dwarf group encodes by about the fanout.
		if p.GroupEncodes == 0 || p.GroupSends < p.GroupEncodes*uint64(p.Fanout) {
			t.Fatalf("point %d: encodes=%d sends=%d fanout=%d — engine not amortizing",
				i, p.GroupEncodes, p.GroupSends, p.Fanout)
		}
		if p.EncodeOnceRatio <= 0.5 || p.EncodeOnceRatio >= 1 {
			t.Fatalf("point %d: encode-once ratio %.3f out of range", i, p.EncodeOnceRatio)
		}
		if p.GroupBytesSaved == 0 {
			t.Fatalf("point %d: no bytes saved", i)
		}
		if p.ProcNsPerPacket <= 0 {
			t.Fatalf("point %d: unpopulated costs: %+v", i, p)
		}
	}
	if FormatEgressFanout(pts) == "" {
		t.Fatal("empty formatted table")
	}
}
