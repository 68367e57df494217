// Rate limiting: stateful packet subscriptions as an in-network security
// primitive (the "security" and "elastic scaling" directions in the
// paper's ongoing work, §4). A keyed window counter declared with
// @query_counter gates forwarding per flow: `rate[add_order.stock]`
// addresses one register cell per stock symbol in the switch's keyed
// banks, so every flow has its own tumbling-window budget — no per-flow
// rule explosion, one rule set covers the whole keyspace. Within each
// window the first messages of a flow pass and its overflow diverts to a
// scrubbing port, entirely in the dataplane.
package main

import (
	"fmt"
	"log"
	"time"

	"camus"
)

const specSrc = `
header_type itch_add_order_t {
    fields {
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;

@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
@query_counter(rate, 100)
`

const (
	portApp   = 1 // the trading application
	portScrub = 9 // overflow/diagnostics sink
	limit     = 5 // messages per stock per 100µs window
)

func main() {
	sp := camus.MustParseSpec(specSrc)
	ps, err := camus.NewPubSub(sp, camus.PubSubConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Every message bumps its own stock's window counter (the counter is
	// keyed by the stock field, not one global cell). The condition
	// reads the pre-update value, so exactly `limit` messages per stock
	// pass per window — a burst in GOOGL cannot consume MSFT's budget.
	subs := fmt.Sprintf(`
true : rate[add_order.stock] <- count()
rate[add_order.stock] < %d : fwd(%d)
rate[add_order.stock] >= %d : fwd(%d)
`, limit, portApp, limit, portScrub)
	if _, err := ps.SetSubscriptions(subs); err != nil {
		log.Fatal(err)
	}

	send := func(stock string, now time.Duration) []int {
		var o camus.AddOrder
		o.SetStock(stock)
		res := ps.ProcessOrder(&o, now)
		if res.Dropped {
			return nil
		}
		return res.Ports.AppendTo(nil)
	}

	fmt.Println("=== interleaved burst inside one 100µs window: 12x GOOGL, 4x MSFT ===")
	app := map[string]int{}
	scrub := map[string]int{}
	now := time.Duration(0)
	deliver := func(stock string, i int) {
		ports := send(stock, now)
		now += time.Microsecond
		for _, p := range ports {
			switch p {
			case portApp:
				app[stock]++
			case portScrub:
				scrub[stock]++
			}
		}
		fmt.Printf("  %-5s msg %2d -> ports %v\n", stock, i, ports)
	}
	for i := 0; i < 12; i++ {
		deliver("GOOGL", i+1)
		if i%3 == 0 {
			deliver("MSFT", i/3+1)
		}
	}
	fmt.Printf("window totals: GOOGL %d to app / %d diverted, MSFT %d to app / %d diverted\n",
		app["GOOGL"], scrub["GOOGL"], app["MSFT"], scrub["MSFT"])
	if app["GOOGL"] != limit || scrub["GOOGL"] != 12-limit {
		log.Fatalf("GOOGL rate limit broken: app=%d scrub=%d", app["GOOGL"], scrub["GOOGL"])
	}
	// MSFT sent only 4 — under its own limit, untouched by GOOGL's
	// overflow. That independence is the point of keying.
	if app["MSFT"] != 4 || scrub["MSFT"] != 0 {
		log.Fatalf("MSFT budget polluted by GOOGL burst: app=%d scrub=%d", app["MSFT"], scrub["MSFT"])
	}

	// The tumbling windows reset per key: the next burst passes again.
	now += 200 * time.Microsecond
	fmt.Println("\n=== next window ===")
	ports := send("GOOGL", now)
	fmt.Printf("  first GOOGL message -> ports %v\n", ports)
	if len(ports) != 1 || ports[0] != portApp {
		log.Fatalf("window did not reset: %v", ports)
	}
	fmt.Println("counters reset; traffic flows to the app again")
}
