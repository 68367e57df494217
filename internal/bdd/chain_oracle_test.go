package bdd

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"camus/internal/interval"
)

// The per-predicate Shannon chain the cell sweep replaced, kept as the
// oracle the sweep is held to: it carries the context as an interval set,
// and at every link filters the classes the context has not killed, stamps
// their predicates and scans for the first the context does not decide. It
// is quadratic in a field's predicates and plainly the definition of the
// diagram; sweep must give the same one, node for node. Nor does it settle
// anything: it lists every survivor, settled or not, down to the last field,
// and makes the terminal of the payloads listed there (listTerminal, the
// settling's oracle).

// buildChain is BuildClasses with the chain in sweep's place.
func buildChain(fields []Field, conjs []Conj, classify Classifier) (*BDD, error) {
	b, sum, err := begin(fields, conjs, classify, Sizes{})
	if err != nil {
		return nil, err
	}
	alive := make([]int32, len(b.conjs))
	for i := range alive {
		alive[i] = int32(i)
	}
	return b.finish(b.chainVisit(0, alive, sum)), nil
}

// listTerminal is the terminal of the payloads of the given satisfied
// conjunctions, each added to the Classifier as it is listed and removed
// again.
func (b *builder) listTerminal(alive []int32) *Node {
	for _, ci := range alive {
		b.classify.Add(b.conjs[ci].payload)
	}
	n := b.terminal()
	for _, ci := range alive {
		b.classify.Remove(b.conjs[ci].payload)
	}
	return n
}

func (b *builder) chainVisit(f int, alive []int32, sum hash128) *Node {
	if f == len(b.fields) {
		return b.listTerminal(alive)
	}
	defer b.release(b.mark())

	classes, which := b.bucket(f, alive)
	if len(classes) == 1 && classes[0].req.IsEmpty() {
		key := memoKey{field: int32(f), alive: sum, aliveLen: int32(len(alive))}
		nd, ok := b.memo[key]
		if !ok {
			nd = b.chainVisit(f+1, alive, sum)
			b.memo[key] = nd
		}
		return nd
	}
	b.deal(f, alive, classes, which)
	live := take(&b.ints, len(classes))
	for k := range live {
		live[k] = int32(k)
	}
	return b.chain(f, alive, classes, interval.Full(b.fields[f].Max), live, 0)
}

// chain expands field f one predicate at a time: ctx is the set of
// values of f that can still reach this point, live the classes not yet
// killed by an ancestor's context, and from the first predicate index an
// ancestor has not already decided.
func (b *builder) chain(f int, alive []int32, classes []class, ctx interval.Set, live []int32, from int) *Node {
	mark := len(b.ints)
	defer func() { b.ints = b.ints[:mark] }()

	// Classes whose requirement is already disjoint from the context can
	// never match below this point; dropping them here keeps their
	// remaining predicates from being materialized.
	kept := take(&b.ints, len(live))[:0]
	for _, k := range live {
		if c := &classes[k]; c.req.IsEmpty() || ctx.Overlaps(c.req) {
			kept = append(kept, k)
		}
	}

	// The first predicate on f, in canonical order, that a kept class uses
	// and the context does not already decide.
	b.predEpoch++
	seen := b.predSeen[f]
	for _, k := range kept {
		for _, pi := range classes[k].preds {
			seen[pi] = b.predEpoch
		}
	}
	next := from
	for ; next < len(seen); next++ {
		if p := b.preds[f][next].set; seen[next] == b.predEpoch && ctx.Overlaps(p) && !ctx.SubsetOf(p) {
			break
		}
	}

	if next == len(seen) {
		// Field f is resolved for every kept class: the classes the context
		// satisfies move on, every member of them.
		var sum hash128
		var survivors []int32
		for _, k := range kept {
			if c := &classes[k]; c.req.IsEmpty() || ctx.SubsetOf(c.req) {
				sum = sum.plus(c.sum)
				survivors = append(append(survivors, c.open...), c.settle...)
			}
		}
		key := memoKey{field: int32(f), alive: sum, aliveLen: int32(len(survivors))}
		if nd, ok := b.memo[key]; ok {
			return nd
		}
		nd := b.chainVisit(f+1, survivors, sum)
		b.memo[key] = nd
		return nd
	}

	p := &b.preds[f][next]
	t := b.chain(f, alive, classes, ctx.Intersect(p.set), kept, next+1)
	e := b.chain(f, alive, classes, ctx.Minus(p.set), kept, next+1)
	if t == e {
		return t
	}
	return b.consNode(f, p, t, e)
}

// fuzzCase is what FuzzSweepMatchesChain makes of its bytes: fields, a set
// of conjunctions, and a second set built on the same classifiers — the
// first with every third conjunction from drop on removed and then added.
type fuzzCase struct {
	domains []byte // per field, an index into fuzzDomains
	first   []fuzzConj
	drop    byte
	then    []fuzzConj
}

type fuzzConj struct {
	payload byte
	cons    []fuzzCons
}

// fuzzCons constrains a field with one of fuzzOps over a and b: values
// below 224 stand for themselves modulo 32, so predicates collide and nest,
// and those from 224 on count down from the field's Max.
type fuzzCons struct{ field, op, a, b byte }

var fuzzDomains = []uint64{7, 255, 1000, 1 << 16, 1 << 63, math.MaxUint64}

const (
	opEq = iota
	opNe
	opGt
	opLt
	opRange
	opGe
	opFull
	opBeyond // a range that runs past the domain, for ingest to clamp
	fuzzOps
)

const (
	maxFuzzFields = 3
	maxFuzzConjs  = 24
	maxFuzzCons   = 4
)

func (c fuzzCase) bytes() []byte {
	out := []byte{byte(len(c.domains) - 1)}
	out = append(out, c.domains...)
	conjs := func(cs []fuzzConj) {
		out = append(out, byte(len(cs)))
		for _, cj := range cs {
			out = append(out, cj.payload, byte(len(cj.cons)))
			for _, k := range cj.cons {
				out = append(out, k.field, k.op, k.a, k.b)
			}
		}
	}
	conjs(c.first)
	out = append(out, c.drop)
	conjs(c.then)
	return out
}

func decodeFuzzCase(data []byte) fuzzCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var c fuzzCase
	c.domains = make([]byte, 1+next()%maxFuzzFields)
	for i := range c.domains {
		c.domains[i] = next() % byte(len(fuzzDomains))
	}
	conjs := func() []fuzzConj {
		cs := make([]fuzzConj, next()%(maxFuzzConjs+1))
		for i := range cs {
			cs[i].payload = next() % 8
			cs[i].cons = make([]fuzzCons, next()%(maxFuzzCons+1))
			for j := range cs[i].cons {
				cs[i].cons[j] = fuzzCons{next() % byte(len(c.domains)), next() % fuzzOps, next(), next()}
			}
		}
		return cs
	}
	c.first = conjs()
	c.drop = next()
	c.then = conjs()
	return c
}

func (c fuzzCase) fields() []Field {
	fields := make([]Field, len(c.domains))
	for i, d := range c.domains {
		fields[i] = Field{Name: fmt.Sprintf("f%d", i), Max: fuzzDomains[d]}
	}
	return fields
}

// builds returns the two conjunction sets.
func (c fuzzCase) builds() [2][]Conj {
	fields := c.fields()
	conjs := func(cs []fuzzConj) []Conj {
		var out []Conj
		for _, cj := range cs {
			conj := Conj{Payload: int(cj.payload)}
			for _, k := range cj.cons {
				top := fields[k.field].Max
				value := func(b byte) uint64 {
					if b >= 224 {
						return top - min(top, uint64(255-b))
					}
					return min(top, uint64(b%32))
				}
				a, b := value(k.a), value(k.b)
				var set interval.Set
				switch k.op {
				case opEq:
					set = interval.Point(a)
				case opNe:
					set = interval.NotEqual(a, top)
				case opGt:
					set = interval.GreaterThan(a, top)
				case opLt:
					set = interval.LessThan(a)
				case opRange:
					set = interval.Range(min(a, b), max(a, b))
				case opGe:
					set = interval.AtLeast(a, top)
				case opFull:
					set = interval.Full(top)
				case opBeyond:
					set = interval.Range(a, math.MaxUint64)
				}
				conj.Constraints = append(conj.Constraints, Constraint{Field: int(k.field), Set: set, Label: Text(set.String())})
			}
			out = append(out, conj)
		}
		return out
	}
	first := conjs(c.first)
	var second []Conj
	for i, conj := range first {
		if (i+int(c.drop))%3 != 0 {
			second = append(second, conj)
		}
	}
	return [2][]Conj{first, append(second, conjs(c.then)...)}
}

// requireSameDiagram holds two extracted diagrams to each other node for
// node. Terminals are compared by the payload sets their classes are when
// their builds' PayloadSets are given, and by class when they are nil.
func requireSameDiagram(t *testing.T, want, got *BDD, wantSets, gotSets *PayloadSets) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() || len(want.Terminals()) != len(got.Terminals()) || want.Root.ID != got.Root.ID {
		t.Fatalf("%d nodes, %d terminals, root %d; want %d, %d, %d", got.NumNodes(), len(got.Terminals()),
			got.Root.ID, want.NumNodes(), len(want.Terminals()), want.Root.ID)
	}
	name := func(sets *PayloadSets, n *Node) string {
		if sets == nil {
			return fmt.Sprint(n.Class)
		}
		return fmt.Sprint(sets.SetOf(n.Class))
	}
	for i, w := range want.Nodes() {
		g := got.Nodes()[i]
		if w.ID != g.ID || w.Field != g.Field || w.Label != g.Label || !w.Set.Equal(g.Set) ||
			w.Matches != g.Matches || w.IsTerminal() && name(wantSets, w) != name(gotSets, g) {
			t.Fatalf("node %d: %+v, want %+v", i, g, w)
		}
		if !w.IsTerminal() && (w.True.ID != g.True.ID || w.False.ID != g.False.ID) {
			t.Fatalf("node %d branches to (%d, %d), want (%d, %d)", i, g.True.ID, g.False.ID, w.True.ID, w.False.ID)
		}
	}
}

// fuzzSeeds are the shapes the sweep is most likely to get wrong.
var fuzzSeeds = []struct {
	name string
	fuzzCase
}{
	{"a two-interval predicate", fuzzCase{
		domains: []byte{1},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opNe, 5, 0}}},
			{1, []fuzzCons{{0, opEq, 5, 0}}},
			{2, []fuzzCons{{0, opNe, 9, 0}, {0, opGt, 3, 0}}},
		},
	}},
	{"a 64-bit field and predicates that reach its Max", fuzzCase{
		domains: []byte{5, 4},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opGe, 252, 0}}},
			{1, []fuzzCons{{0, opGt, 7, 0}, {1, opEq, 255, 0}}},
			{2, []fuzzCons{{0, opEq, 255, 0}}},
			{3, []fuzzCons{{0, opRange, 254, 255}, {1, opNe, 255, 0}}},
			{4, []fuzzCons{{0, opBeyond, 30, 0}}},
		},
	}},
	{"nested and partially overlapping ranges", fuzzCase{
		domains: []byte{2},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opRange, 2, 20}}},
			{1, []fuzzCons{{0, opRange, 5, 10}}},
			{2, []fuzzCons{{0, opRange, 8, 25}}},
			{3, []fuzzCons{{0, opRange, 5, 10}, {0, opRange, 8, 25}}},
			{4, []fuzzCons{{0, opLt, 12, 0}}},
		},
	}},
	// Under [0,10] the class of payload 1 is dead, and [5,25], which cuts
	// [0,10] and is nobody else's, must not be tested there: the first
	// predicate of a live class, not the first that cuts.
	{"a predicate used only by a class the context has killed", fuzzCase{
		domains: []byte{1, 0},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opRange, 0, 10}}},
			{1, []fuzzCons{{0, opRange, 20, 30}, {0, opRange, 5, 25}}},
			{2, []fuzzCons{{0, opGt, 8, 0}, {1, opEq, 3, 0}}},
		},
	}},
	{"an unsatisfiable conjunction", fuzzCase{
		domains: []byte{0, 1},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opEq, 3, 0}, {0, opEq, 4, 0}}},
			{1, []fuzzCons{{1, opGt, 255, 0}}},
			{2, []fuzzCons{{0, opEq, 3, 0}, {1, opLt, 9, 0}}},
			{3, nil},
		},
	}},
	{"a second build after removing and adding conjunctions", fuzzCase{
		domains: []byte{3, 2},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opEq, 1, 0}, {1, opGt, 10, 0}}},
			{1, []fuzzCons{{0, opEq, 1, 0}, {1, opGt, 20, 0}}},
			{2, []fuzzCons{{0, opEq, 2, 0}, {1, opGt, 10, 0}}},
			{3, []fuzzCons{{0, opEq, 2, 0}, {1, opLt, 15, 0}}},
			{4, []fuzzCons{{0, opEq, 3, 0}}},
			{5, []fuzzCons{{1, opRange, 12, 18}}},
		},
		drop: 1,
		then: []fuzzConj{
			{6, []fuzzCons{{0, opEq, 1, 0}, {1, opGt, 15, 0}}},
			{0, []fuzzCons{{0, opEq, 4, 0}, {1, opGt, 10, 0}}},
		},
	}},
	// Payloads 0 and 3 are settled before field 0 is visited, and payload 3
	// is settled again, by a second conjunction, on field 1.
	{"an unconstrained conjunction", fuzzCase{
		domains: []byte{1, 2},
		first: []fuzzConj{
			{0, nil},
			{1, []fuzzCons{{0, opGt, 5, 0}}},
			{3, nil},
			{3, []fuzzCons{{1, opLt, 12, 0}}},
			{2, []fuzzCons{{0, opEq, 9, 0}, {1, opGe, 4, 0}}},
		},
	}},
	// Payload 2 settles on field 0 by its first conjunction and on field 2 by
	// its second; where both match it is counted twice and must stay held
	// until the second is unsettled too.
	{"two conjunctions of one payload that settle at different fields", fuzzCase{
		domains: []byte{0, 1, 2},
		first: []fuzzConj{
			{2, []fuzzCons{{0, opGt, 2, 0}}},
			{2, []fuzzCons{{0, opLt, 6, 0}, {2, opRange, 3, 9}}},
			{1, []fuzzCons{{1, opEq, 4, 0}, {2, opGt, 5, 0}}},
			{4, []fuzzCons{{0, opEq, 4, 0}}},
		},
	}},
	// A full-domain constraint is no test: the conjunction's last field is
	// the last it narrows, or none.
	{"a constraint equal to the full domain", fuzzCase{
		domains: []byte{0, 1},
		first: []fuzzConj{
			{0, []fuzzCons{{0, opFull, 0, 0}}},
			{1, []fuzzCons{{0, opEq, 3, 0}, {1, opFull, 0, 0}}},
			{2, []fuzzCons{{1, opFull, 0, 0}, {1, opGt, 20, 0}}},
			{3, []fuzzCons{{0, opFull, 0, 0}, {1, opFull, 0, 0}}},
		},
	}},
	// The second build meets the first's classes again on the same
	// Classifier, and some under payload sets the first never held.
	{"a rebuild on the shared classifier", fuzzCase{
		domains: []byte{1, 0},
		first: []fuzzConj{
			{1, []fuzzCons{{0, opEq, 1, 0}}},
			{3, []fuzzCons{{0, opRange, 1, 4}, {1, opGt, 2, 0}}},
			{2, []fuzzCons{{0, opGt, 2, 0}}},
			{5, []fuzzCons{{1, opLt, 5, 0}}},
			{4, nil},
		},
		drop: 2,
		then: []fuzzConj{
			{7, []fuzzCons{{0, opEq, 1, 0}, {1, opEq, 3, 0}}},
			{6, []fuzzCons{{0, opGt, 2, 0}}},
		},
	}},
}

// funcClassifier adapts a function of the payload set held to a
// Classifier, and checks how it is driven: a Remove of a payload it does not
// hold fails the test, and it counts its calls.
type funcClassifier struct {
	t                      testing.TB
	fn                     func(payloads []int) (class int, matches bool)
	held                   map[int]int // payload -> Adds less Removes
	adds, removes, classes int
}

func classifierOf(t testing.TB, fn func([]int) (int, bool)) *funcClassifier {
	return &funcClassifier{t: t, fn: fn, held: map[int]int{}}
}

func (c *funcClassifier) Add(p int) {
	c.held[p]++
	c.adds++
}

func (c *funcClassifier) Remove(p int) {
	if c.held[p] == 0 {
		c.t.Fatalf("Remove(%d) of a payload not held", p)
	}
	if c.held[p]--; c.held[p] == 0 {
		delete(c.held, p)
	}
	c.removes++
}

func (c *funcClassifier) Class() (int, bool) {
	c.classes++
	payloads := make([]int, 0, len(c.held))
	for p := range c.held {
		payloads = append(payloads, p)
	}
	slices.Sort(payloads)
	return c.fn(payloads)
}

// requireEmpty fails the test unless every Add has had its Remove.
func (c *funcClassifier) requireEmpty() {
	c.t.Helper()
	if len(c.held) != 0 || c.adds != c.removes {
		c.t.Fatalf("after a build the classifier holds %v: %d adds, %d removes", c.held, c.adds, c.removes)
	}
}

// FuzzSweepMatchesChain builds random conjunctions over random fields both
// ways, twice on the same two classifiers, with payload-set
// terminals and with class terminals: the extracted diagrams must be
// identical, so settling conjunctions as the sweep meets them gives the
// terminals listing them does. Each build must leave its classifier holding
// nothing.
func FuzzSweepMatchesChain(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed.bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		fields := c.fields()
		// The class of a payload set is its lowest payload's parity.
		parity := func(payloads []int) (int, bool) {
			if len(payloads) == 0 {
				return 2, false
			}
			return payloads[0] & 1, true
		}
		classifiers := [2]*funcClassifier{classifierOf(t, parity), classifierOf(t, parity)}
		// The chain and the sweep meet the payload sets in different orders,
		// so the same set has a different class on either side.
		sets := [2]*PayloadSets{NewPayloadSets(), NewPayloadSets()}
		for _, arm := range []struct {
			classify [2]Classifier
			sets     [2]*PayloadSets
		}{
			{[2]Classifier{sets[0], sets[1]}, sets},
			{[2]Classifier{classifiers[0], classifiers[1]}, [2]*PayloadSets{}},
		} {
			for _, conjs := range c.builds() {
				want, err := buildChain(fields, conjs, arm.classify[0])
				if err != nil {
					t.Fatal(err)
				}
				got, err := BuildClasses(fields, conjs, arm.classify[1], Sizes{})
				if err != nil {
					t.Fatal(err)
				}
				requireSameDiagram(t, want, got, arm.sets[0], arm.sets[1])
				for _, cl := range classifiers {
					cl.requireEmpty()
				}
				for _, s := range sets {
					if s.nheld != 0 || s.sum != (hash128{}) {
						t.Fatalf("after a build the payload sets hold %d payloads", s.nheld)
					}
				}
			}
		}
	})
}

// TestFuzzSeedsRoundTrip keeps the seeds what they say they are: the bytes
// a seed is added as decode to the seed.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, seed := range fuzzSeeds {
		if got := decodeFuzzCase(seed.bytes()); fmt.Sprint(got) != fmt.Sprint(seed.fuzzCase) {
			t.Errorf("%s: decodes to %v, want %v", seed.name, got, seed.fuzzCase)
		}
	}
}
