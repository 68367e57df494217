// In-network caching: the NetCache-style use case the paper's conclusion
// points at ("packet subscriptions would also be a useful abstraction for
// in-network caching, which routes based on content identifier"). Requests
// for hot keys are steered to the rack's cache node; everything else goes
// to the backing store partition that owns the key range.
package main

import (
	"context"
	"fmt"
	"log"

	"camus"
)

const specSrc = `
header_type kv_req_t {
    fields {
        op: 8;
        key: 64;
    }
}
header kv_req_t kv;

@query_field_exact(kv.op)
@query_field(kv.key)
`

const (
	opGet = 1
	opPut = 2

	portCache  = 1
	portStoreA = 2 // keys [0, 2^63)
	portStoreB = 3 // keys [2^63, 2^64)
	halfSpace  = uint64(1) << 63
)

func main() {
	sp := camus.MustParseSpec(specSrc)

	// The controller tracks the hot set (as NetCache's controller does)
	// and refreshes the switch rules as popularity shifts.
	hot := []uint64{0xCAFE, 0xBEEF, 0xF00D}
	prog, err := camus.CompileSource(sp, rulesFor(hot), camus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sw, err := camus.NewSwitch(prog, camus.DefaultSwitchConfig())
	if err != nil {
		log.Fatal(err)
	}
	ctl := camus.NewController(sw)

	opIdx, err := prog.FieldIndex("kv.op")
	if err != nil {
		log.Fatal(err)
	}
	keyIdx, err := prog.FieldIndex("kv.key")
	if err != nil {
		log.Fatal(err)
	}
	route := func(op, key uint64) []int {
		vals := make([]uint64, len(prog.Fields))
		vals[opIdx], vals[keyIdx] = op, key
		res := sw.Process(vals, 0)
		if res.Dropped {
			return nil
		}
		return res.Ports.AppendTo(nil)
	}

	fmt.Println("=== hot set {CAFE, BEEF, F00D} cached in-network ===")
	show := func() {
		for _, probe := range []struct {
			name string
			op   uint64
			key  uint64
		}{
			{"GET hot CAFE", opGet, 0xCAFE},
			{"GET cold 42", opGet, 42},
			{"GET cold high", opGet, halfSpace + 7},
			{"PUT hot CAFE", opPut, 0xCAFE}, // writes bypass the cache
		} {
			fmt.Printf("  %-14s -> ports %v\n", probe.name, route(probe.op, probe.key))
		}
	}
	show()

	// PUTs to hot keys must also invalidate the cache: they multicast to
	// the owning store and the cache node.
	if got := route(opPut, 0xCAFE); len(got) != 2 {
		log.Fatalf("hot PUT should reach store and cache, got %v", got)
	}

	// The hot set rotates; only the delta hits the switch.
	hot = []uint64{0xCAFE, 0xD00D}
	newProg, err := camus.CompileSource(sp, rulesFor(hot), camus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	delta, err := ctl.Update(context.Background(), newProg)
	if err != nil {
		log.Fatal(err)
	}
	prog = newProg
	fmt.Printf("\n=== hot set rotated to {CAFE, D00D} (update: %s) ===\n", delta)
	if got := route(opGet, 0xBEEF); len(got) != 1 || got[0] != portStoreA {
		log.Fatalf("evicted key should go to its store, got %v", got)
	}
	if got := route(opGet, 0xD00D); len(got) != 1 || got[0] != portCache {
		log.Fatalf("new hot key should hit the cache, got %v", got)
	}
	show()
}

// rulesFor compiles the routing policy: hot GETs to the cache only, hot
// PUTs to owner+cache (write-through invalidation), everything else by
// key-range ownership. Hot GETs are carved out of the ownership rules with
// a negated disjunction — the kind of predicate address-based routing
// cannot express.
func rulesFor(hot []uint64) string {
	hotDisj := ""
	for i, k := range hot {
		if i > 0 {
			hotDisj += " || "
		}
		hotDisj += fmt.Sprintf("kv.key == %d", k)
	}
	src := ""
	for _, k := range hot {
		src += fmt.Sprintf("kv.op == %d && kv.key == %d : fwd(%d)\n", opGet, k, portCache)
		// Writes invalidate: the cache hears about them too.
		src += fmt.Sprintf("kv.op == %d && kv.key == %d : fwd(%d)\n", opPut, k, portCache)
	}
	notHotGet := fmt.Sprintf("!(kv.op == %d && (%s))", opGet, hotDisj)
	src += fmt.Sprintf("kv.key < %d && %s : fwd(%d)\n", halfSpace, notHotGet, portStoreA)
	src += fmt.Sprintf("kv.key >= %d && %s : fwd(%d)\n", halfSpace, notHotGet, portStoreB)
	return src
}
