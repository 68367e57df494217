// ITCH pub/sub: the paper's case study (§4, Fig. 6). A publisher streams
// a market-data feed as MoldUDP64 datagrams; the Camus switch splits it so
// each subscriber receives only the stocks (and price/size bands) it asked
// for. The example prints per-subscriber delivery counts and the host-load
// reduction against broadcasting the whole feed.
package main

import (
	"fmt"
	"log"

	"camus"
	"camus/internal/workload"
)

func main() {
	sp := camus.MustParseSpec(workload.ITCHSpecSource)

	ps, err := camus.NewPubSub(sp, camus.PubSubConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Three trading strategies, each on its own switch port (the feed
	// carries GOOGL plus synthetic symbols S000..S099):
	//   port 1: everything about GOOGL
	//   port 2: S001 block trades (>= 500 shares)
	//   port 3: small S002 orders (odd lots under 300 shares)
	subs := `
stock == GOOGL : fwd(1)
stock == S001 && shares >= 500 : fwd(2)
stock == S002 && shares < 300 : fwd(3)
`
	delta, err := ps.SetSubscriptions(subs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("installed subscriptions (%s)\n\n", delta)

	// Publish a synthetic market feed as Mold datagrams.
	feedCfg := workload.SyntheticFeedConfig()
	feedCfg.Duration /= 4 // keep the example quick
	feed := workload.GenerateFeed(feedCfg)

	perPort := map[int]int{}
	total, forwarded := 0, 0
	var seq uint64 = 1
	for _, pkt := range feed {
		wire := workload.WirePacket(pkt, "EXAMPLE", seq)
		seq += uint64(len(pkt.Orders))
		total += len(pkt.Orders)
		deliveries, err := ps.ProcessDatagram(wire, pkt.At)
		if err != nil {
			log.Fatal(err)
		}
		for _, d := range deliveries {
			forwarded++
			for _, port := range d.Ports.AppendTo(nil) {
				perPort[port]++
			}
		}
	}

	fmt.Printf("feed: %d messages in %d datagrams\n", total, len(feed))
	fmt.Printf("forwarded by switch: %d messages (%.2f%% of feed)\n",
		forwarded, 100*float64(forwarded)/float64(total))
	for port := 1; port <= 3; port++ {
		fmt.Printf("  port %d: %6d messages\n", port, perPort[port])
	}
	fmt.Printf("\nbaseline (broadcast) would deliver %d messages to every server;\n", total)
	fmt.Printf("switch filtering cuts subscriber load by %.0fx\n",
		float64(total)/float64(maxInt(forwarded, 1)))

	st := ps.Program().Stats
	fmt.Printf("\nswitch footprint: %d table entries (%d SRAM, %d TCAM), %d multicast groups\n",
		st.TableEntries, st.SRAMEntries, st.TCAMEntries, st.MulticastGroups)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
