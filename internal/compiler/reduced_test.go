package compiler_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/interval"
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
// second), so the reduction cannot silently stop firing; the first is a
// thirtieth since no row leads to the drop (289 entries, from 386).
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
		{rulesCase("10k rules, 100 symbols x 2 hosts", workload.ITCHSpec(), itch(10000, 2, 1, 1)), 320},
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

// TestTerminalsAreActions: a terminal is an action, not a state. The row
// that reaches one decides the packet with its action set, so no terminal
// has a state, Stats.States counts the In nodes, and the leaf holds one
// entry per action set that updates state: none on a 20k Fig. 5c rule set
// over 200 hosts, where every class only forwards, and one per class on the
// itch-stateful fixture, where every class updates.
func TestTerminalsAreActions(t *testing.T) {
	check := func(name string, prog *compiler.Program) {
		t.Helper()
		inNodes := 0
		for _, n := range prog.BDD.Nodes() {
			_, hasState := prog.StateOf(n.ID)
			_, hasAction := prog.ActionOf(n.ID)
			switch {
			case n.IsTerminal() && (hasState || !hasAction):
				t.Errorf("%s: terminal %d has a state (%v) or no action set (%v)", name, n.ID, hasState, !hasAction)
			case hasState:
				inNodes++
			}
		}
		if prog.Stats.States != inNodes {
			t.Errorf("%s: %d states, %d In nodes", name, prog.Stats.States, inNodes)
		}
		updating := map[int]bool{}
		for a, as := range prog.Actions {
			if len(as.Updates) > 0 {
				updating[a] = true
			}
		}
		for _, e := range prog.Leaf.Entries {
			a, ok := compiler.Decides(e.Next)
			if !ok || e.Kind != compiler.EntryExact || e.Lo != uint64(a) || !updating[a] {
				t.Errorf("%s: leaf entry %s is not one of an action set that updates state", name, e)
			}
			delete(updating, a)
		}
		if len(updating) > 0 || prog.Stats.LeafEntries != len(prog.Leaf.Entries) {
			t.Errorf("%s: %d updating action sets without a leaf entry; %d leaf entries, Stats says %d",
				name, len(updating), len(prog.Leaf.Entries), prog.Stats.LeafEntries)
		}
	}

	prog, err := compiler.Compile(workload.ITCHSpec(), workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1,
	}), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("20k Fig. 5c rules", prog)
	if len(prog.Leaf.Entries) != 0 {
		t.Errorf("20k Fig. 5c rules: %d leaf entries, want none", len(prog.Leaf.Entries))
	}
	for _, c := range goldenCases(t) {
		if c.name != "itch-stateful" {
			continue
		}
		prog, err := c.compile(compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(c.name, prog)
		if len(prog.Leaf.Entries) == 0 {
			t.Errorf("%s: no leaf entries", c.name)
		}
	}
}

// TestNoRowLeadsToTheNoOp: a miss does what the terminal that forwards
// nowhere and updates nothing does, so under every ablation of the lowering
// no leaf entry and no wildcard leads there, and a row does only in a state
// whose wildcard leads elsewhere because it had to: it saves more rows than
// the miss would, or it holds a range an exact table cannot. And a codec
// stays where it occupies fewer slots than the ranges it replaces: on a 20k
// Fig. 5c rule set over 200 hosts the price table keeps its codec.
func TestNoRowLeadsToTheNoOp(t *testing.T) {
	doesNothing := func(a compiler.ActionSet) bool { return a.Ports.Len() == 0 && len(a.Updates) == 0 }
	ablations := []compiler.Options{{}, {DisableCompression: true}, {DisableExactLowering: true}, {ForceRangeTables: true}}
	for _, c := range goldenCases(t) {
		for _, opts := range ablations {
			prog, err := c.compile(opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", c.name, opts, err)
			}
			noop := func(next int) bool {
				a, ok := compiler.Decides(next)
				return ok && doesNothing(prog.Actions[a])
			}
			for _, e := range prog.Leaf.Entries {
				if noop(e.Next) {
					t.Errorf("%s %+v: leaf entry %s does nothing", c.name, opts, e)
				}
			}
			for f, tab := range prog.Tables {
				wild := map[int]int{}                 // state -> its wildcard's target
				rows := map[int][]interval.Interval{} // state -> the values its rows match
				toNoop := map[int]int{}               // state -> its rows leading to a no-op
				for _, e := range tab.Entries {
					switch {
					case e.Kind == compiler.EntryWild:
						wild[e.State] = e.Next
						if noop(e.Next) {
							t.Errorf("%s %+v: %s wildcard %s leads to the no-op", c.name, opts, tab.Name, e)
						}
						continue
					case noop(e.Next):
						toNoop[e.State]++
					}
					rows[e.State] = append(rows[e.State], interval.Interval{Lo: e.Lo, Hi: e.Hi})
				}
				for st, k := range toNoop {
					if _, ok := wild[st]; !ok {
						t.Errorf("%s %+v: %s state %d has %d rows to the no-op and no wildcard", c.name, opts, tab.Name, st, k)
						continue
					}
					if tab.Codec != nil {
						continue // the rows match codes; the choice was made on values
					}
					rest := interval.FromIntervals(rows[st]...).Complement(prog.Fields[f].Max).Intervals()
					ranged := slices.ContainsFunc(rest, func(iv interval.Interval) bool { return !iv.IsPoint() })
					if len(rest)-1 <= k && !(ranged && prog.Fields[f].Match == spec.MatchExact) {
						t.Errorf("%s %+v: %s state %d keeps a wildcard of %d intervals beside %d rows to the no-op",
							c.name, opts, tab.Name, st, len(rest), k)
					}
				}
			}
		}
	}

	prog, err := compiler.Compile(workload.ITCHSpec(), workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1,
	}), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(prog.Tables, func(t *compiler.Table) bool { return t.Codec != nil }) || prog.Stats.TCAMEntries > 450 {
		t.Errorf("20k Fig. 5c rules: want a codec and at most 450 TCAM entries, got %s", prog.Stats)
	}
}
