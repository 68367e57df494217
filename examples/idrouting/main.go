// Identifier-based routing: the ILA-style use case from the paper's
// introduction. Containers are addressed by a flat 64-bit identifier
// carried in the packet; the switch routes on the identifier instead of
// the (ephemeral) locator address, so migrating a container is a one-rule
// control-plane update rather than a renumbering event.
package main

import (
	"context"
	"fmt"
	"log"

	"camus"
)

const specSrc = `
header_type ila_t {
    fields {
        identifier: 64;
        locator: 32;
    }
}
header ila_t ila;

@query_field_exact(ila.identifier)
`

func main() {
	sp := camus.MustParseSpec(specSrc)

	// Ten services, each identified by a flat ID, initially spread over
	// four top-of-rack ports.
	mk := func(assign map[uint64]int) string {
		src := ""
		for id := uint64(1); id <= 10; id++ {
			src += fmt.Sprintf("ila.identifier == %d : fwd(%d)\n", 0x1000+id, assign[id])
		}
		return src
	}
	assign := map[uint64]int{}
	for id := uint64(1); id <= 10; id++ {
		assign[id] = 1 + int(id)%4
	}

	prog, err := camus.CompileSource(sp, mk(assign), camus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sw, err := camus.NewSwitch(prog, camus.DefaultSwitchConfig())
	if err != nil {
		log.Fatal(err)
	}
	ctl := camus.NewController(sw)

	idIdx, err := prog.FieldIndex("ila.identifier")
	if err != nil {
		log.Fatal(err)
	}
	route := func(id uint64) int {
		vals := make([]uint64, len(prog.Fields))
		vals[idIdx] = 0x1000 + id
		res := sw.Process(vals, 0)
		if res.Dropped {
			return 0
		}
		return res.Ports.AppendTo(nil)[0]
	}

	fmt.Println("=== initial placement ===")
	for id := uint64(1); id <= 10; id++ {
		fmt.Printf("  service %2d -> port %d\n", id, route(id))
	}

	// Service 7 migrates from its rack to port 1. Only its rule changes;
	// the control plane pushes a two-write delta.
	assign[7] = 1
	newProg, err := camus.CompileSource(sp, mk(assign), camus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	delta, err := ctl.Update(context.Background(), newProg)
	if err != nil {
		log.Fatal(err)
	}
	prog = newProg
	fmt.Printf("\n=== service 7 migrated (update: %s) ===\n", delta)
	if got := route(7); got != 1 {
		log.Fatalf("service 7 routed to port %d, want 1", got)
	}
	for id := uint64(1); id <= 10; id++ {
		fmt.Printf("  service %2d -> port %d\n", id, route(id))
	}

	// Unknown identifiers drop (or would fall through to IP routing in a
	// brownfield deployment — packet subscriptions compose with other
	// pipelines).
	if got := route(999); got != 0 {
		log.Fatal("unknown identifier should not match")
	}
	fmt.Println("\nunknown identifiers fall through to the default route")
}
