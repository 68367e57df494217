package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"camus/internal/itch"
	"camus/internal/spec"
	"camus/internal/workload"
)

// The workload constants below are frozen: changing one changes what every
// recorded baseline measured. README.md says why each workload exists.

const (
	msgsPerDgram = 4     // 20 B MoldUDP64 header + 4 x (2 + 36) B = 172 B datagrams
	templates    = 16384 // distinct datagrams generated per seed, sent round-robin
	priceMax     = 1000  // thresholds and feed prices live in (0, priceMax)
	markSymbol   = "MARK"
	markerBit    = uint64(1) << 63 // OrderRef tag of a marker message
)

// rule is one row of the generator table the oracle evaluates directly:
// "stock == sym && price > thr : fwd(port)". thr < 0 drops the price
// predicate.
type rule struct{ sym, thr, port int }

func (r rule) String() string {
	if r.thr < 0 {
		return fmt.Sprintf("stock == %s : fwd(%d)", symName(r.sym), r.port)
	}
	return fmt.Sprintf("stock == %s && price > %d : fwd(%d)", symName(r.sym), r.thr, r.port)
}

func symName(i int) string { return fmt.Sprintf("S%05d", i) }

// workloadDef is one set of inputs. Every workload runs the same phases
// (see run.go); only the inputs differ.
type workloadDef struct {
	name     string
	stateful bool // decisions read keyed state: the oracle checks conservation
	rules    int  // Fig. 5c rows in the generator table (0: see fanout/stateful)
	ruleSyms int  // symbols the table subscribes to: symBase .. symBase+ruleSyms-1
	symBase  int  // 0: the feed's first ruleSyms symbols; past feedSyms: symbols the feed never carries
	hosts    int  // rules forward to ports 1..hosts
	sink     bool // bind every port but the probes to one socket nobody reads; else they stay unbound
	grid     int  // threshold quantum
	groups   int  // fanout only: multicast groups of hosts/groups ports each; symbol s forwards to group s%groups
	feedSyms int  // symbols the feed draws from; the first ruleSyms are subscribed
	zipf     float64
	probes   [2]int
	paced    int // datagrams per second in the paced phase
	control  int // datagrams per second of the probe feed under the control-plane phase
}

func workloads(smoke bool) []workloadDef {
	ws := []workloadDef{
		{name: "itch-sparse", rules: 10000, ruleSyms: 100, hosts: 2, grid: 1,
			feedSyms: 2000, probes: [2]int{1, 2}, paced: 50000, control: 2000},
		{name: "itch-fanout", groups: 20, ruleSyms: 200, hosts: 320, sink: true,
			feedSyms: 20, probes: [2]int{1, 17}, paced: 1000, control: 1000},
		{name: "itch-stateful", stateful: true, rules: 2000, ruleSyms: 100, symBase: 100000, hosts: 2, grid: 1,
			feedSyms: 2000, zipf: 1.3, probes: [2]int{1, 2}, paced: 25000, control: 2000},
		{name: "subs-churn", rules: 20000, ruleSyms: 100, hosts: 200, grid: 10,
			feedSyms: 2000, probes: [2]int{1, 2}, paced: 50000, control: 2000},
	}
	if smoke {
		for i := range ws {
			ws[i].rules /= 50
			if !ws[i].sink && ws[i].hosts > 8 {
				ws[i].hosts = 8 // so few rules still reach the probes
			}
			ws[i].paced = (ws[i].paced + 9) / 10
			ws[i].control = (ws[i].control + 9) / 10
		}
	}
	return ws
}

// Keyed-state rules of itch-stateful: two 10 ms tumbling windows per
// symbol. A symbol's messages pass (probe 1) or are scrubbed (probe 2)
// while its window count is in [rateLo, rateHi) — so hot Zipf keys cross
// the threshold, are rate-limited above it, and cold cells expire — and
// everything else is dropped. The workload's table adds a body of ordinary
// subscriptions on symbols the feed never carries: they decide nothing, but
// they give compile, churn and update a rule set worth timing.
const (
	stateWindowUS = 10000
	rateLo        = 8
	rateHi        = 14
)

var statefulSpecSrc = workload.ITCHSpecSource +
	fmt.Sprintf("@query_counter(rate, %d)\n@query_counter(px, %d)\n", stateWindowUS, stateWindowUS)

var statefulRules = fmt.Sprintf(`true : rate[add_order.stock] <- count()
true : px[add_order.stock] <- sample(add_order.price)
rate[add_order.stock] >= %d && rate[add_order.stock] < %d && avg(px)[add_order.stock] > %d : fwd(1)
rate[add_order.stock] >= %d && rate[add_order.stock] < %d && avg(px)[add_order.stock] <= %d : fwd(2)
`, rateLo, rateHi, priceMax/2, rateLo, rateHi, priceMax/2)

func (w *workloadDef) spec() (*spec.Spec, error) {
	if !w.stateful {
		return workload.ITCHSpec(), nil
	}
	sp, err := spec.Parse(statefulSpecSrc)
	if err != nil {
		return nil, err
	}
	return sp, sp.SetFieldOrder("stock", "price", "shares")
}

// table draws the generator table for a seed.
func (w *workloadDef) table(r *rand.Rand) []rule {
	var t []rule
	if w.groups > 0 {
		fanout := w.hosts / w.groups
		for s := 0; s < w.ruleSyms; s++ {
			for m := 0; m < fanout; m++ {
				t = append(t, rule{sym: s, thr: -1, port: s%w.groups*fanout + m + 1})
			}
		}
	}
	for i := 0; i < w.rules; i++ {
		t = append(t, rule{sym: w.symBase + r.Intn(w.ruleSyms), thr: w.threshold(r), port: 1 + r.Intn(w.hosts)})
	}
	return t
}

func (w *workloadDef) threshold(r *rand.Rand) int {
	return w.grid * (1 + r.Intn(priceMax/w.grid-1))
}

// source renders a table as rule text, with the workload's fixed rules
// and the marker rule every probe subscribes to.
func (w *workloadDef) source(t []rule) string {
	var b strings.Builder
	b.Grow(len(t)*48 + 512)
	if w.stateful {
		b.WriteString(statefulRules)
	}
	b.WriteString(w.markerRule())
	for _, r := range t {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// markerRule sends the marker symbol to every probe: credit, barriers and
// the end of every phase ride on it.
func (w *workloadDef) markerRule() string {
	return fmt.Sprintf("stock == %s : fwd(%d); fwd(%d)\n", markSymbol, w.probes[0], w.probes[1])
}

// churnKind selects which rules one churn event replaces.
type churnKind int

const (
	localized churnKind = iota // all victims on as few symbols as possible
	uniform                    // victims spread over every symbol
)

// churn replaces 1% of the table (at least one rule, none of an empty
// table) in place and returns the victims' indices. Event k of a kind
// picks a different 1% than event k-1. A replacement keeps its victim's
// symbol, so localized events stay localized.
func (w *workloadDef) churn(t []rule, kind churnKind, k int, r *rand.Rand) []int {
	if len(t) == 0 {
		return nil
	}
	n := len(t) / 100
	if n < 1 {
		n = 1
	}
	var victims []int
	if kind == localized {
		bySym := make([]int, len(t))
		for i := range bySym {
			bySym[i] = i
		}
		sort.SliceStable(bySym, func(a, b int) bool { return t[bySym[a]].sym < t[bySym[b]].sym })
		start := (k * n) % len(t)
		for i := 0; i < n; i++ {
			victims = append(victims, bySym[(start+i)%len(t)])
		}
	} else {
		stride := len(t) / n
		for i := 0; i < n; i++ {
			victims = append(victims, (i*stride+k)%len(t))
		}
	}
	for _, v := range victims {
		t[v].port = 1 + r.Intn(w.hosts)
		if t[v].thr >= 0 {
			t[v].thr = w.threshold(r)
		}
	}
	return victims
}

// ruleSet is one version of the installed subscriptions: the table, its
// source text, and what the oracle expects each template message to reach.
type ruleSet struct {
	table []rule
	src   string
	masks []uint8 // per template message: bit p set when probe p must receive it
}

// inputs is everything generated from the seed. The program under test
// sees only sets[*].src and the datagrams.
type inputs struct {
	sets   [3]ruleSet // installed at Listen; after a localized churn; after a further uniform churn
	wires  [][]byte   // template datagrams; the publisher patches stamp and OrderRef per send
	marker []byte
}

// Byte offsets of the fields the publisher patches and the probes read,
// relative to a message's type byte.
const (
	offTracking = 3
	offStamp    = 5
	offRef      = 11
	wireMsg0    = itch.MoldHeaderLen + 2 // first message's type byte in a datagram
	wireStride  = 2 + itch.AddOrderLen
)

func generate(w *workloadDef, seed int64) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := &inputs{}

	var zipf *rand.Zipf
	if w.zipf > 0 {
		zipf = rand.NewZipf(r, w.zipf, 1, uint64(w.feedSyms-1))
	}
	syms := make([]int, templates*msgsPerDgram)
	prices := make([]int, len(syms))
	in.wires = make([][]byte, templates)
	for d := range in.wires {
		pkt := itch.MoldPacket{}
		pkt.Header.SetSession("FEED")
		for k := 0; k < msgsPerDgram; k++ {
			i := d*msgsPerDgram + k
			if zipf != nil {
				syms[i] = int(zipf.Uint64())
			} else {
				syms[i] = r.Intn(w.feedSyms)
			}
			prices[i] = 1 + r.Intn(priceMax-1)
			o := itch.AddOrder{StockLocate: uint16(syms[i]), Side: itch.Buy, Shares: 100, Price: uint32(prices[i])}
			o.SetStock(symName(syms[i]))
			pkt.Append(o.Bytes())
		}
		in.wires[d] = pkt.Bytes()
	}
	mark := itch.AddOrder{Side: itch.Buy, Shares: 1, Price: 1}
	mark.SetStock(markSymbol)
	pkt := itch.MoldPacket{}
	pkt.Header.SetSession("FEED")
	pkt.Append(mark.Bytes())
	in.marker = pkt.Bytes()

	t := w.table(r)
	for i := range in.sets {
		switch i {
		case 1:
			w.churn(t, localized, 0, r)
		case 2:
			w.churn(t, uniform, 0, r)
		}
		set := ruleSet{table: append([]rule(nil), t...)}
		set.src = w.source(set.table)
		if !w.stateful {
			set.masks = expectMasks(set.table, w.probes, syms, prices)
		}
		in.sets[i] = set
	}
	return in
}

// expectMasks is the oracle's evaluation of a table: probe p receives a
// message iff some rule for p's port names the message's symbol with a
// threshold below its price. It never touches the compiler.
func expectMasks(t []rule, probes [2]int, syms, prices []int) []uint8 {
	var minThr [2]map[int]int
	for p, port := range probes {
		minThr[p] = make(map[int]int)
		for _, r := range t {
			if r.port != port {
				continue
			}
			if cur, ok := minThr[p][r.sym]; !ok || r.thr < cur {
				minThr[p][r.sym] = r.thr
			}
		}
	}
	masks := make([]uint8, len(syms))
	for i := range syms {
		for p := range probes {
			if thr, ok := minThr[p][syms[i]]; ok && prices[i] > thr {
				masks[i] |= 1 << p
			}
		}
	}
	return masks
}

func putUint48(b []byte, v uint64) {
	b[0], b[1] = byte(v>>40), byte(v>>32)
	binary.BigEndian.PutUint32(b[2:], uint32(v))
}

func uint48(b []byte) uint64 {
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(binary.BigEndian.Uint32(b[2:]))
}
