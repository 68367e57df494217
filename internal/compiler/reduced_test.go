package compiler_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/workload"
)

// Rules whose actions collide in every way the merge allows: a drop that
// says so beside the one nobody said, a forward that beats a drop, rules
// that only update state, and requirements of two intervals.
const reducedActions = `price > 100 : fwd(1)
price > 200 : fwd(1)
price > 300 : drop()
price > 400 && shares < 10 : fwd(2); drop()
price < 50 || price > 500 : fwd(2)
shares > 40 : rate[add_order.stock] <- count()
shares > 60 : rate[add_order.stock] <- count()
stock == GOOGL && (shares < 5 || shares > 80) : drop()
stock == AAPL && rate[add_order.stock] > 3 : fwd(3)
stock != AAPL && rate[add_order.stock] > 3 : fwd(3)
`

// TestReducedEqualsExact holds the diagram the compiler reduces by action
// class to the one it does not: the same rules through the same builder
// with no classifier, every terminal the exact set of rules that matched,
// merged only when a packet gets there. On a grid of packets that stands on
// both sides of every boundary of every predicate, the tables must do what
// the exact diagram's rules say, and Trace must name exactly its rules —
// under every ablation of the lowering.
func TestReducedEqualsExact(t *testing.T) {
	cases := goldenCases(t)
	for _, c := range cases {
		if c.name == "itch-stateful" { // the corpus's, at two more sizes and seeds
			for seed := int64(21); seed < 23; seed++ {
				var src strings.Builder
				src.WriteString(goldenStateful)
				for _, r := range workload.ITCHSubscriptions(workload.ITCHSubsConfig{
					Subscriptions: 40 * int(seed-20), Stocks: 10, Hosts: 2, PriceMax: 1000, PriceGrid: 1, Seed: seed,
				}) {
					src.WriteString(r.String() + "\n")
				}
				cases = append(cases, sourceCase(t, fmt.Sprintf("stateful-seed%d", seed), c.sp, src.String()))
			}
			cases = append(cases, sourceCase(t, "colliding-actions", c.sp, reducedActions))
		}
	}
	for seed := int64(31); seed < 33; seed++ {
		for _, hosts := range []int{2, 200} {
			cases = append(cases, rulesCase(fmt.Sprintf("fig5c-%dhosts-seed%d", hosts, seed), workload.ITCHSpec(),
				workload.ITCHSubscriptions(workload.ITCHSubsConfig{
					Subscriptions: 400, Stocks: 20, Hosts: hosts, PriceMax: 1000, PriceGrid: 10, Seed: seed,
				})))
		}
		siena := workload.DefaultSienaConfig()
		siena.Seed = seed
		cases = append(cases,
			rulesCase(fmt.Sprintf("siena-seed%d", seed), workload.SienaSpec(siena), workload.Siena(siena)),
			sourceCase(t, fmt.Sprintf("siena-ranges-seed%d", seed), workload.SienaSpec(siena), sienaRanges(siena, 60, seed)))
	}

	ablations := []compiler.Options{{}, {DisableCompression: true}, {DisableExactLowering: true}, {ForceRangeTables: true}}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			exact, err := c.exact()
			if err != nil {
				t.Fatal(err)
			}
			probes := probeGrid(exact, 10000, rand.New(rand.NewSource(7)))
			keys, payloads := make([]string, len(probes)), make([][]int, len(probes))
			for i, v := range probes {
				keys[i], payloads[i] = exact.Eval(v)
			}
			for a, opts := range ablations {
				prog, err := c.compile(opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				if prog.Stats.BDDNodes > exact.Nodes() {
					t.Errorf("%+v: %d nodes, the payload-exact diagram has %d", opts, prog.Stats.BDDNodes, exact.Nodes())
				}
				for i, v := range probes {
					if got := prog.Evaluate(v); got.Key() != keys[i] {
						t.Fatalf("%+v: packet %v: tables do %s, rules %v do otherwise", opts, v, got, payloads[i])
					}
					if a > 0 {
						continue // which rules matched is no business of the lowering
					}
					tr := prog.Trace(v)
					if !slices.Equal(tr.MatchedRules, payloads[i]) {
						t.Fatalf("packet %v: Trace names rules %v, the exact diagram %v", v, tr.MatchedRules, payloads[i])
					}
					if tr.Action.Key() != keys[i] {
						t.Fatalf("packet %v: Trace ends in %s, rules %v do otherwise", v, tr.Action, payloads[i])
					}
				}
			}
		})
	}
}

func rulesCase(name string, sp *spec.Spec, rules []lang.Rule) goldenCase {
	return goldenCase{name: name, sp: sp, rules: rules,
		compile: func(o compiler.Options) (*compiler.Program, error) { return compiler.Compile(sp, rules, o) },
		exact:   func() (*compiler.Exact, error) { return compiler.ExactOf(sp, rules) }}
}

func sourceCase(t *testing.T, name string, sp *spec.Spec, src string) goldenCase {
	rules, err := lang.ParseRules(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rulesCase(name, sp, rules)
}

// probeGrid returns packets over the values that decide a predicate of the
// diagram's conjunctions: for each interval of each constraint, its two ends
// and their outer neighbours, beside the ends of the field's domain. Every
// combination when there are at most limit of them, else limit drawn at
// random.
func probeGrid(e *compiler.Exact, limit int, r *rand.Rand) [][]uint64 {
	cands := make([][]uint64, len(e.Fields))
	for f, fi := range e.Fields {
		cands[f] = []uint64{0, fi.Max}
	}
	for _, c := range e.Conjs {
		for _, con := range c.Constraints {
			max := e.Fields[con.Field].Max
			for _, iv := range con.Set.Intervals() {
				for _, v := range []uint64{iv.Lo - 1, iv.Lo, iv.Hi, iv.Hi + 1} {
					if v <= max && (v != iv.Lo-1 || iv.Lo > 0) { // neither wrapped nor off the end
						cands[con.Field] = append(cands[con.Field], v)
					}
				}
			}
		}
	}
	total := 1
	for f := range cands {
		slices.Sort(cands[f])
		cands[f] = slices.Compact(cands[f])
		if total <= limit {
			total *= len(cands[f])
		}
	}
	var out [][]uint64
	if total <= limit {
		out = [][]uint64{make([]uint64, len(cands))}
		for f, vs := range cands {
			var next [][]uint64
			for _, base := range out {
				for _, v := range vs {
					p := slices.Clone(base)
					p[f] = v
					next = append(next, p)
				}
			}
			out = next
		}
		return out
	}
	for i := 0; i < limit; i++ {
		p := make([]uint64, len(cands))
		for f, vs := range cands {
			p[f] = vs[r.Intn(len(vs))]
		}
		out = append(out, p)
	}
	return out
}

// TestTablesScaleWithBehaviours pins the reduction where it pays: rule sets
// whose rules outnumber the things they do by three orders of magnitude
// must compile to tables the size of the latter, and one with nothing to
// merge must not grow. The bounds are a tenth of what the payload-exact
// diagram gave (9,702 entries for the first at seed 1, 18,056 for the
// second), so the reduction cannot silently stop firing.
func TestTablesScaleWithBehaviours(t *testing.T) {
	itch := func(n, hosts int, grid uint64, seed int64) []lang.Rule {
		return workload.ITCHSubscriptions(workload.ITCHSubsConfig{
			Subscriptions: n, Stocks: 100, Hosts: hosts, PriceMax: 1000, PriceGrid: grid, Seed: seed,
		})
	}
	var stateful strings.Builder
	stateful.WriteString(goldenStateful)
	for _, r := range itch(2000, 2, 1, 1) {
		stateful.WriteString(r.String() + "\n")
	}
	var statefulSpec *spec.Spec
	for _, c := range goldenCases(t) {
		if c.name == "itch-stateful" {
			statefulSpec = c.sp
		}
	}
	for _, c := range []struct {
		c     goldenCase
		bound int
	}{
		{rulesCase("10k rules, 100 symbols x 2 hosts", workload.ITCHSpec(), itch(10000, 2, 1, 1)), 600},
		{sourceCase(t, "2k rules under two keyed windows", statefulSpec, stateful.String()), 600},
		{rulesCase("2k rules, 200 hosts: nothing to merge", workload.ITCHSpec(), itch(2000, 200, 10, 12)), 11930},
	} {
		prog, err := c.c.compile(compiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.c.name, err)
		}
		if got := prog.EntriesTotal(); got > c.bound {
			t.Errorf("%s: %d table entries, bound %d (%d distinct action sets)\n%s",
				c.c.name, got, c.bound, len(prog.Actions), prog.Stats)
		}
	}
}
