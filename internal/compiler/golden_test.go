package compiler_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"camus/internal/bdd"
	"camus/internal/compiler"
	"camus/internal/fabric"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/workload"
)

// TestCompileGolden pins the compiler's output, bit for bit, on a corpus
// that reaches every branch of the BDD builder and the lowering: a change
// to any digest below means the compiler now emits a different program for
// the same rules. That can be right — a new reduction, a new table layout
// — but it is never an optimisation: record the new digest in the change
// that explains why the output moved, and prove the new program equivalent
// (TestReducedEqualsExact).
//
// Recorded in PR 15, when terminals became action classes and Algorithm 1
// began uniting same-target paths. The dump's terminal line lost the
// payload list that class terminals do not have and names instead what the
// terminal is — whether it matches, and its action set's Key — so every
// digest changed text; dumped with a bare terminal line, the parent
// (86ffcd2) and this change agreed on fabric-cover-stock,
// fabric-cover-stock-price and empty — those programs did not move. The
// six that did, parent → now:
//
//	fig5c-1kx2     bddNodes=2083 states=1093 entries=1196 (sram=104 tcam=8057 codec=0)      → bddNodes=376 states=105 entries=403 (sram=104 tcam=3762 codec=0)
//	fig5c-2kx200   bddNodes=3725 states=1914 entries=11930 (sram=11829 tcam=445 codec=100)  → bddNodes=3632 states=1830 entries=11930 (same three)
//	siena-ranges   bddNodes=27869 states=12569 entries=93767 (sram=92138 tcam=1848 codec=170) → bddNodes=5336 states=1530 entries=21149 (sram=20293 tcam=1070 codec=157)
//	siena-default  bddNodes=360 states=233 entries=1048 (sram=856 tcam=470 codec=41)        → bddNodes=333 states=208 entries=1009 (sram=821 tcam=466 codec=41)
//	multi-term-dnf bddNodes=33 states=19 entries=48 (sram=27 tcam=152 codec=5)              → bddNodes=33 states=19 entries=44 (sram=24 tcam=146 codec=5): the union alone
//	itch-stateful  bddNodes=2794 states=1896 entries=2899 (sram=2499 tcam=4425 codec=5)     → bddNodes=298 states=106 entries=361 (sram=99 tcam=3540 codec=0)
//
// Recorded again when no row, wildcard or leaf entry came to lead to the
// terminal that forwards nowhere and updates nothing (a miss does the
// same), and a codec came to be taken only where it occupies fewer slots.
// The diagrams did not move; the terminal line now reads the class through
// LeafAction, and multi-term-dnf and itch-stateful, where every terminal
// does something, kept their digests. The seven that moved, entries
// (sram, tcam, codec):
//
//	fig5c-1kx2                  403 (104, 3762, 0)     → 301 (103, 3394, 0)
//	fig5c-2kx200              11930 (11829, 445, 100)  → 11379 (11279, 444, 100)
//	siena-ranges              21149 (20293, 1070, 157) → 20802 (19881, 1475, 104)
//	siena-default              1009 (821, 466, 41)     → 861 (741, 398, 41)
//	fabric-cover-stock          115 (114, 1, 0)        → 113 (113, 0, 0)
//	fabric-cover-stock-price   2116 (2095, 149, 20)    → 1799 (1779, 148, 20)
//	empty                         1 (1, 0, 0)          → 0 (0, 0, 0)
//
// Recorded again when terminals stopped being states: a row whose Out node
// is a terminal names the terminal's action set, and the leaf keeps an
// entry only for an action set that updates state. Every digest moved: the
// rows' targets, the state numbering, Actions (which now lists every
// terminal, the one that does nothing included) and the terminal line,
// which names the action set. The diagrams did not move. Each fixture's
// entries fell by exactly its leaf entries that only forwarded, states by
// its terminals:
//
//	fig5c-1kx2                  301 → 298      states 105 → 101
//	fig5c-2kx200              11379 → 9651     states 1830 → 101
//	siena-ranges              20802 → 19993    states 1530 → 721
//	siena-default               861 → 831      states 208 → 177
//	multi-term-dnf               44 → 35       states 19 → 10
//	itch-stateful               361 → 361      states 106 → 102 (every class updates state)
//	fabric-cover-stock          113 → 99       states 16 → 1
//	fabric-cover-stock-price   1799 → 1784     states 116 → 100
//	empty                         0 → 0        states 1 → 0
func TestCompileGolden(t *testing.T) {
	digest := programDigest
	for _, c := range goldenCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			pass, err := c.compile(compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(pass); got != c.digest {
				t.Errorf("digest %s, recorded %s\n%s", got, c.digest, pass.Program().Stats)
			}
			if c.rules == nil {
				return
			}
			// The same rules through a Session, cold and then after churn —
			// the last two thirds of the set, reversed, synced and compiled
			// in between — must come out the same.
			sess := compiler.NewSession(c.sp, compiler.Options{})
			churn := slices.Clone(c.rules[len(c.rules)/3:])
			slices.Reverse(churn)
			for _, when := range []string{"cold", "churned"} {
				if when == "churned" {
					if err := sess.Sync(context.Background(), compiler.Source{Rules: churn}); err != nil {
						t.Fatal(err)
					}
					if _, err := sess.Recompile(); err != nil {
						t.Fatal(err)
					}
				}
				if err := sess.Sync(context.Background(), compiler.Source{Rules: c.rules}); err != nil {
					t.Fatal(err)
				}
				pass, err := sess.RecompilePass()
				if err != nil {
					t.Fatal(err)
				}
				if got := digest(pass); got != c.digest {
					t.Errorf("%s session digest %s, recorded %s", when, got, c.digest)
				}
			}
		})
	}
}

// programDigest hashes everything a Program carries, beside the diagram it
// was lowered from (dumpProgram).
func programDigest(pass *compiler.Pass) string {
	h := sha256.New()
	dumpProgram(h, pass)
	return hex.EncodeToString(h.Sum(nil))
}

// compiled runs a pass's back end, for a test that reads the diagram and
// the conjunctions beside the program.
func compiled(p *compiler.Pass, err error) (*compiler.Pass, error) {
	if err == nil {
		_, err = p.Compile()
	}
	return p, err
}

// goldenCase is one corpus entry. Cases made of rules also run through a
// compiler.Session; the fabric covers have no rule form and do not. exact
// builds the case's payload-exact diagram, for TestReducedEqualsExact.
type goldenCase struct {
	name    string
	digest  string
	sp      *spec.Spec
	rules   []lang.Rule
	compile func(compiler.Options) (*compiler.Pass, error) // a compiled pass
	exact   func() (*compiler.Exact, error)
}

// Keyed-state rules of the benchmark's itch-stateful workload: two 10 ms
// windows per symbol decide pass, scrub or drop.
const (
	goldenStatefulSpec = workload.ITCHSpecSource + "@query_counter(rate, 10000)\n@query_counter(px, 10000)\n"
	goldenStateful     = `true : rate[add_order.stock] <- count()
true : px[add_order.stock] <- sample(add_order.price)
rate[add_order.stock] >= 8 && rate[add_order.stock] < 14 && avg(px)[add_order.stock] > 500 : fwd(1)
rate[add_order.stock] >= 8 && rate[add_order.stock] < 14 && avg(px)[add_order.stock] <= 500 : fwd(2)
`
	// A rule whose DNF repeats one conjunction (atoms in another order, and
	// once more through a double negation), beside a contradictory term and
	// a catch-all.
	goldenMultiTerm = `(stock == GOOGL && price > 10) || (price > 10 && stock == GOOGL) || !(stock != GOOGL || price <= 10) || stock == AAPL : fwd(1)
stock == GOOGL && stock == AAPL : fwd(9)
!(stock == MSFT || price < 100) || (shares > 5 && shares < 50) : fwd(2,3)
stock == AAPL && (price < 20 || price > 80) : fwd(4); drop()
shares != 7 : fwd(5)
true : fwd(6)
`
)

func goldenCases(t testing.TB) []goldenCase {
	itch := func(n, hosts int, grid uint64, seed int64) []lang.Rule {
		return workload.ITCHSubscriptions(workload.ITCHSubsConfig{
			Subscriptions: n, Stocks: 100, Hosts: hosts, PriceMax: 1000, PriceGrid: grid, Seed: seed,
		})
	}
	rules := func(name, digest string, sp *spec.Spec, rules []lang.Rule) goldenCase {
		c := rulesCase(name, sp, rules)
		c.digest = digest
		return c
	}
	source := func(name, digest string, sp *spec.Spec, src string) goldenCase {
		parsed, err := lang.ParseRules(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if parsed == nil {
			parsed = []lang.Rule{}
		}
		return rules(name, digest, sp, parsed)
	}
	statefulSpec, err := spec.Parse(goldenStatefulSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := statefulSpec.SetFieldOrder("stock", "price", "shares"); err != nil {
		t.Fatal(err)
	}
	var stateful strings.Builder
	stateful.WriteString(goldenStateful)
	for _, r := range itch(300, 2, 1, 15) {
		stateful.WriteString(r.String() + "\n")
	}
	siena := workload.DefaultSienaConfig()

	// A spine program: four leaves' rules projected onto keep fields and
	// compiled through fabric.SpinePass, once on the symbol alone (one
	// many-interval predicate per leaf) and once on symbol and price. The
	// oracle builds SpinePass's conjunctions and actions itself, so a wrong
	// payload-to-port mapping in the fabric fails TestReducedEqualsExact.
	cover := func(name, digest string, keep ...string) goldenCase {
		sp := workload.ITCHSpec()
		input := func() ([]fabric.Cover, []int, error) {
			leaves := make([][]lang.Rule, 4)
			for _, r := range itch(600, 16, 50, 16) {
				leaf := r.Actions[0].Ports[0] % len(leaves)
				leaves[leaf] = append(leaves[leaf], r)
			}
			covers := make([]fabric.Cover, len(leaves))
			ports := make([]int, len(leaves))
			for i, rules := range leaves {
				c, err := fabric.ComputeCover(sp, rules, fabric.CoverOptions{KeepFields: keep})
				if err != nil {
					return nil, nil, err
				}
				covers[i], ports[i] = c, 100+i
			}
			return covers, ports, nil
		}
		return goldenCase{name: name, digest: digest,
			compile: func(o compiler.Options) (*compiler.Pass, error) {
				covers, ports, err := input()
				if err != nil {
					return nil, err
				}
				return compiled(fabric.SpinePass(sp, covers, ports, o))
			},
			exact: func() (*compiler.Exact, error) {
				covers, ports, err := input()
				if err != nil {
					return nil, err
				}
				var conjs []bdd.Conj
				actions := make([][]lang.Action, len(covers))
				for j, c := range covers {
					actions[j] = []lang.Action{lang.Fwd(ports[j])}
					for _, cj := range c.Conjs {
						cj.Payload = j
						conjs = append(conjs, cj)
					}
				}
				return compiler.ExactOfConjs(sp, conjs, actions)
			}}
	}

	return []goldenCase{
		rules("fig5c-1kx2", "f8e37a182e010cf8bde1a136dafa97affbe50a50f214b0d83242d42d4327f19d", workload.ITCHSpec(), itch(1000, 2, 1, 11)),
		rules("fig5c-2kx200", "de861dab58287696dce5116886da796f10158e0b3dc3395eb62c5ff64e63dcb4", workload.ITCHSpec(), itch(2000, 200, 10, 12)),
		source("siena-ranges", "4c4a08ec9e8e7957b06acfa79b71c4de2f2de645974c8c95e1784ae72a5e84f3", workload.SienaSpec(siena), sienaRanges(siena, 160, 13)),
		rules("siena-default", "e5a96d646000a4eba7db1d8fe5be955749f969855faa7aa0f8efa349cb2d0afb", workload.SienaSpec(siena), workload.Siena(siena)),
		source("multi-term-dnf", "6af605d67f537cd582fe102be175b9bd2fab8e7ba86280503892abd3450278a4", workload.ITCHSpec(), goldenMultiTerm),
		source("itch-stateful", "513a8b1bc7e5adc24cb8f374c112ae78ebe74794574ea0c3f551f36cf84a61b1", statefulSpec, stateful.String()),
		cover("fabric-cover-stock", "1dcccbe8cb5cd1abc56204268d67977d290616916af09bfc3dd327b0f1e89e35", "stock"),
		cover("fabric-cover-stock-price", "d18a9e1fa3ac7634f9ee8e35e2dcc0cde85466f84e130fec0bcb647926f6a58b", "stock", "price"),
		source("empty", "1fdf1c9756a98e8e6c1d730ad08179cc44927e2ab93f8f504150241c4ab43fdb", workload.ITCHSpec(), ""),
	}
}

// sienaRanges draws a Siena-style rule set over cfg's spec that uses every
// operator: one- and two-sided ranges and != on the numeric attributes
// (requirements of one, two and three intervals), and rules that reach the
// same requirement through different predicates (a > 9 && a < 20 against
// a >= 10 && a <= 19 against a > 9 && a < 20 && a != 25).
func sienaRanges(cfg workload.SienaConfig, n int, seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for i := 0; i < n; i++ {
		var atoms []string
		// Every rule names a symbol of the first attribute, so the diagram
		// stays a few thousand nodes; one in ten excludes it instead.
		op := "=="
		if r.Intn(10) == 0 {
			op = "!="
		}
		atoms = append(atoms, fmt.Sprintf("m.attr00 %s V%04d", op, r.Intn(8)))
		for k := 1 + r.Intn(2); k > 0; k-- {
			a := fmt.Sprintf("m.attr%02d", cfg.StringAttrs+r.Intn(cfg.Attributes-cfg.StringAttrs))
			lo := 10 * (1 + r.Intn(20))
			hi := lo + 10*(1+r.Intn(5))
			switch r.Intn(8) {
			case 0:
				atoms = append(atoms, fmt.Sprintf("%s > %d", a, lo))
			case 1:
				atoms = append(atoms, fmt.Sprintf("%s < %d", a, hi))
			case 2:
				atoms = append(atoms, fmt.Sprintf("%s != %d", a, lo))
			case 3:
				atoms = append(atoms, fmt.Sprintf("%s > %d && %s < %d", a, lo-1, a, hi))
			case 4:
				atoms = append(atoms, fmt.Sprintf("%s >= %d && %s <= %d", a, lo, a, hi-1))
			case 5:
				atoms = append(atoms, fmt.Sprintf("%s > %d && %s < %d && %s != %d", a, lo-1, a, hi, a, lo+5))
			case 6:
				atoms = append(atoms, fmt.Sprintf("%s > %d && %s < %d && %s != %d", a, lo-1, a, hi, a, hi+5))
			default:
				atoms = append(atoms, fmt.Sprintf("!(%s >= %d && %s < %d)", a, lo, a, hi))
			}
		}
		fmt.Fprintf(&b, "%s : fwd(%d)\n", strings.Join(atoms, " && "), 1+r.Intn(12))
	}
	return b.String()
}

// dumpProgram writes everything a compiled pass's Program carries in a
// canonical text form — fields, every table's entries in order, leaf,
// actions, groups, initial state — then every node of the pass's diagram
// with its state, and the statistics.
func dumpProgram(w io.Writer, pass *compiler.Pass) {
	p := pass.Program()
	for i, f := range p.Fields {
		fmt.Fprintf(w, "field %d %+v\n", i, f)
	}
	table := func(t *compiler.Table) {
		fmt.Fprintf(w, "table %s field=%d match=%s\n", t.Name, t.Field, t.Match)
		if t.Codec != nil {
			fmt.Fprintf(w, " codec max=%d bounds=%v\n", t.Codec.Max, t.Codec.Bounds)
		}
		for _, e := range t.Entries {
			fmt.Fprintf(w, " %d %d %d %d %d %d\n", e.State, e.Kind, e.Lo, e.Hi, e.Next, e.Priority)
		}
	}
	for _, t := range p.Tables {
		table(t)
	}
	table(p.Leaf)
	for i, a := range p.Actions {
		fmt.Fprintf(w, "action %d ports=%v drop=%v group=%d", i, a.Ports, a.Drop, a.Group)
		for _, u := range a.Updates {
			fmt.Fprintf(w, " update{%d %q %q %q %q}", u.Kind, u.Var, u.StateKey, u.Func, u.Args)
		}
		fmt.Fprintln(w)
	}
	for i, g := range p.Groups {
		fmt.Fprintf(w, "group %d %v\n", i, g)
	}
	fmt.Fprintf(w, "initial %d\n", p.InitialState)
	for _, n := range pass.Diagram().Nodes() {
		if a, ok := pass.ActionOf(n.ID); ok {
			// What Implies and VerifyCover decide on, and the action set a row
			// reaching this terminal decides with: a wrong classification moves
			// the digest.
			fmt.Fprintf(w, "node %d action=%d terminal matches=%v class=%q\n", n.ID, a, n.Matches, p.Actions[a].Key())
			continue
		}
		st, ok := pass.StateOf(n.ID)
		if !ok {
			st = -1
		}
		fmt.Fprintf(w, "node %d state=%d field=%d set=%s label=%q true=%d false=%d\n",
			n.ID, st, n.Field, n.Set.Key(), n.Label, n.True.ID, n.False.ID)
	}
	fmt.Fprintf(w, "root %d\nstats %+v\n", pass.Diagram().Root.ID, p.Stats)
}

// TestCompileAllocsPerRule is the cost gate of a cold compile: how many
// heap objects a Fig. 5c rule costs on the way to an installed-ready Program
// — from its AST and, as a live update pays it, from source text — with one
// worker so the number belongs to the code and not to the host. Each bound
// sits under a tenth above what the compiler does today (5.8 per rule from
// either at 2k×200 under go1.24, the text parsed straight to normal form in
// a chunk's arena and the rules folded into one; 11.6 and 17.6 while a
// chunk's rules were a syntax tree, then a slice per term; 19.2 and 25.2
// when the bounds before were set; 21.0 and 34.0 while the lexer built
// every token in a strings.Builder and DNF copied every term to sort it,
// 24.3 from the AST while the builder cut two interval sets per predicate
// link and every payload set got a port list of its own, 35.1 before
// predicates were interned, 98.2 before the class-expanding builder and
// interned action sets); a change that brings back a per-rule tree or term
// slice, a per-token builder, a per-constraint string, a per-use atom, a
// per-terminal map or a per-link set goes through it.
func TestCompileAllocsPerRule(t *testing.T) {
	const n = 2000
	sp := workload.ITCHSpec()
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: n, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 12,
	})
	var text strings.Builder
	for _, r := range rules {
		text.WriteString(r.String() + "\n")
	}
	src := text.String()
	for _, from := range []struct {
		name    string
		bound   float64
		compile func() (*compiler.Program, error)
	}{
		{"rules", 6.2, func() (*compiler.Program, error) { return compiler.Compile(sp, rules, compiler.Options{Workers: 1}) }},
		{"source", 6.2, func() (*compiler.Program, error) {
			return compiler.CompileSource(sp, src, compiler.Options{Workers: 1})
		}},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := from.compile(); err != nil {
				t.Fatal(err)
			}
		})
		if perRule := allocs / n; perRule > from.bound {
			t.Errorf("from %s: %.1f allocations per rule compiling %d rules, bound %.1f", from.name, perRule, n, from.bound)
		} else {
			t.Logf("from %s: %.1f allocations per rule", from.name, perRule)
		}
	}
}
