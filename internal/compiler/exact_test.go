package compiler

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"camus/internal/lang"
	"camus/internal/spec"
)

const exactIDSpecSrc = `
header_type h_t {
    fields {
        id: 16;
        len: 16;
    }
}
header h_t h;
@query_field_exact(h.id)
@query_field(h.len)
`

// TestAdjacentEqualitiesOnAnExactField: == rules on adjacent values of an
// exact field that do the same thing meet in one merged interval, which
// lowers to one exact entry per value — no more entries than the rules that
// made it — beside the residual the table's default or its miss takes. The
// program does what the rules say on every value, and a genuine range on an
// exact field is still refused.
func TestAdjacentEqualitiesOnAnExactField(t *testing.T) {
	sp, err := spec.Parse(exactIDSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	var migrated strings.Builder
	for id := 1; id <= 10; id++ {
		port := 1 + id%4
		if id == 7 {
			port = 1 // next to id 8's port: the live migration of examples/idrouting
		}
		fmt.Fprintf(&migrated, "id == %d : fwd(%d)\n", 0x1000+id, port)
	}
	for _, src := range []string{
		"id == 5 : fwd(1)\nid == 6 : fwd(1)\n",
		"id == 5 : fwd(1)\nid == 6 : fwd(1)\nid == 7 : fwd(1)\nid == 9 : fwd(2)\nid == 10 : fwd(1)\n",
		"id == 5 && len > 100 : fwd(1)\nid == 6 && len > 100 : fwd(1)\nid == 7 : fwd(2)\n",
		"id == 0 : fwd(1)\nid == 1 : fwd(1)\nid == 65535 : fwd(3)\nid == 65534 : fwd(3)\n",
		"id == 5 : fwd(1)\nid == 6 : fwd(1)\nid != 6 && len < 10 : fwd(2)\n",
		migrated.String(),
	} {
		rules, err := lang.ParseRules(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(sp, rules, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		idx, err := p.FieldIndex("h.id")
		if err != nil {
			t.Fatal(err)
		}
		if tb := p.Tables[idx]; tb.Match != spec.MatchExact || slices.ContainsFunc(tb.Entries, func(e Entry) bool { return e.Kind == EntryRange }) {
			t.Errorf("%s: id table is %v:\n%s", src, tb.Match, p.Dump())
		}
		ids := []uint64{65534, 65535}
		for id := uint64(0); id < 32; id++ {
			ids = append(ids, id, 0x1000+id)
		}
		for _, id := range ids {
			for _, n := range []uint64{0, 9, 100, 101, 5000} {
				vals := make([]uint64, len(p.Fields))
				vals[idx] = id
				for i, f := range p.Fields {
					if f.Name == "h.len" {
						vals[i] = n
					}
				}
				want := referenceEval(t, sp, rules, map[string]uint64{"h.id": id, "h.len": n})
				if got := p.Evaluate(vals).Ports.AppendTo(nil); !slices.Equal(got, want) {
					t.Fatalf("%s: id=%d len=%d goes to %v, the rules say %v\n%s", src, id, n, got, want, p.Dump())
				}
			}
		}
	}
	if _, err := CompileSource(sp, "id > 5 && id < 9 : fwd(1)\nid == 20 : fwd(2)\n", Options{}); err == nil {
		t.Error("a range predicate on an exact field beside == rules compiled")
	}
}
