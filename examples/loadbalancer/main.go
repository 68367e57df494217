// Load balancer: packet subscriptions as an in-network L4 load balancer
// (the Maglev/Katran use case from the paper's introduction). Traffic to a
// virtual IP is spread over backends by source-port range — arbitrary
// range predicates, not just prefixes — and reconfiguring on a backend
// failure is an incremental rule update, not a middlebox restart.
package main

import (
	"context"
	"fmt"
	"log"

	"camus"
)

const specSrc = `
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

func main() {
	sp := camus.MustParseSpec(specSrc)

	// VIP 10.0.0.100:80 spread over 4 backends by source-port quartile.
	subsHealthy := `
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport < 16384 : fwd(1)
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport >= 16384 && udp.sport < 32768 : fwd(2)
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport >= 32768 && udp.sport < 49152 : fwd(3)
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport >= 49152 : fwd(4)
`
	prog, err := camus.CompileSource(sp, subsHealthy, camus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	sw, err := camus.NewSwitch(prog, camus.DefaultSwitchConfig())
	if err != nil {
		log.Fatal(err)
	}
	ctl := camus.NewController(sw)

	fieldIdx := func(name string) int {
		i, err := prog.FieldIndex(name)
		if err != nil {
			log.Fatal(err)
		}
		return i
	}
	dstIdx, sportIdx, dportIdx := fieldIdx("ip.dst"), fieldIdx("udp.sport"), fieldIdx("udp.dport")
	vip := uint64(10)<<24 | 100 // 10.0.0.100

	process := func(sport uint64) int {
		vals := make([]uint64, len(prog.Fields))
		vals[dstIdx], vals[sportIdx], vals[dportIdx] = vip, sport, 80
		res := sw.Process(vals, 0)
		if res.Dropped {
			return 0
		}
		return res.Ports.AppendTo(nil)[0]
	}

	fmt.Println("=== 4 healthy backends ===")
	counts := map[int]int{}
	for sport := uint64(0); sport < 65536; sport += 97 {
		counts[process(sport)]++
	}
	for b := 1; b <= 4; b++ {
		fmt.Printf("  backend %d: %4d flows\n", b, counts[b])
	}

	// Backend 3 fails: recompile with its range folded into backend 4 and
	// push only the delta.
	subsDegraded := `
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport < 16384 : fwd(1)
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport >= 16384 && udp.sport < 32768 : fwd(2)
ip.dst == 10.0.0.100 && udp.dport == 80 && udp.sport >= 32768 : fwd(4)
`
	newProg, err := camus.CompileSource(sp, subsDegraded, camus.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	delta, err := ctl.Update(context.Background(), newProg)
	if err != nil {
		log.Fatal(err)
	}
	prog = newProg
	fmt.Printf("\n=== backend 3 drained (update: %s) ===\n", delta)
	counts = map[int]int{}
	for sport := uint64(0); sport < 65536; sport += 97 {
		counts[process(sport)]++
	}
	for b := 1; b <= 4; b++ {
		fmt.Printf("  backend %d: %4d flows\n", b, counts[b])
	}
	if counts[3] != 0 {
		log.Fatal("backend 3 still receiving traffic after drain")
	}

	// Traffic to another address is untouched by the VIP rules.
	vals := make([]uint64, len(prog.Fields))
	vals[dstIdx] = uint64(10)<<24 | 99
	vals[dportIdx] = 80
	if res := sw.Process(vals, 0); !res.Dropped {
		log.Fatal("non-VIP traffic should not match")
	}
	fmt.Println("\nnon-VIP traffic falls through to the default pipeline (drop here)")
}
