package compiler

import (
	"encoding/binary"
	"reflect"
	"testing"

	"camus/internal/spec"
)

const lbSpecSrc = `
header_type ipv4_t {
    fields {
        src: 32;
        dst: 32;
    }
}
header_type udp_t {
    fields {
        sport: 16;
        dport: 16;
    }
}
header ipv4_t ip;
header udp_t udp;

@query_field_exact(ip.dst)
@query_field(udp.sport)
@query_field_exact(udp.dport)
`

func TestWireExtractorOffsets(t *testing.T) {
	sp, err := spec.Parse(lbSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileSource(sp, "ip.dst == 10.0.0.100 && udp.dport == 80 : fwd(1)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewWireExtractor(prog)
	if err != nil {
		t.Fatal(err)
	}
	if ex.MinLen() != 12 { // ipv4_t (8) + udp_t (4)
		t.Fatalf("MinLen = %d, want 12", ex.MinLen())
	}

	pkt := make([]byte, 12)
	binary.BigEndian.PutUint32(pkt[0:4], 0x0a000001) // ip.src
	binary.BigEndian.PutUint32(pkt[4:8], 0x0a000064) // ip.dst = 10.0.0.100
	binary.BigEndian.PutUint16(pkt[8:10], 4444)      // udp.sport
	binary.BigEndian.PutUint16(pkt[10:12], 80)       // udp.dport

	vals, err := ex.Values(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Evaluate(vals)
	if !reflect.DeepEqual(as.Ports.AppendTo(nil), []int{1}) {
		t.Fatalf("matching packet not forwarded: %+v (vals=%v)", as, vals)
	}

	// Change the destination: no match.
	binary.BigEndian.PutUint32(pkt[4:8], 0x0a000065)
	vals, err = ex.Values(pkt, vals)
	if err != nil {
		t.Fatal(err)
	}
	if as := prog.Evaluate(vals); as.Ports.Len() != 0 {
		t.Fatalf("non-matching packet forwarded: %+v", as)
	}

	// Short packet.
	if _, err := ex.Values(pkt[:8], nil); err == nil {
		t.Fatal("short packet should fail")
	}
}

func TestWireExtractorStateFieldsZeroed(t *testing.T) {
	sp := itchSpec(t)
	prog, err := CompileSource(sp, "stock == GOOGL && avg(price) > 5 : fwd(1)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewWireExtractor(prog)
	if err != nil {
		t.Fatal(err)
	}
	pkt := make([]byte, ex.MinLen())
	vals, err := ex.Values(pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range prog.Fields {
		if f.IsState && vals[i] != 0 {
			t.Fatalf("state slot %d not zeroed", i)
		}
	}
}

func TestWireExtractorRejectsUnaligned(t *testing.T) {
	sp, err := spec.Parse(`
header_type odd_t { fields { flag: 3; pad: 5; } }
header odd_t o;
@query_field(o.pad)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := CompileSource(sp, "o.pad > 1 : fwd(1)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewWireExtractor(prog); err == nil {
		t.Fatal("unaligned field should be rejected")
	}
}
