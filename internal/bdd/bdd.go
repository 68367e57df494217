// Package bdd implements the multi-terminal binary decision diagram at the
// heart of the Camus compiler (§3.2 of the paper).
//
// Non-terminal nodes test an atomic predicate on a packet field; a terminal
// node stands for what is done to the packets that reach it — the class a
// caller's Classifier gives the matching payloads (the compiler: their
// merged action set), or, without one, the payload set itself. Terminals
// are hash-consed on that class, so two regions that do the same thing for
// different reasons are one node and the reductions below see through them.
// The builder performs Shannon expansion over the rules' DNF conjunctions,
// a field at a time: one sweep over the elementary cells the field's
// predicates cut its domain into finds what survives each cell, and the
// predicate nodes above the cells are then built over sets of cells. A
// conjunction is settled once its class enters a cell of the last field it
// constrains: nothing below can kill it, so it leaves the survivor lists
// and its payload joins an accumulator, counted, that a terminal reads. A
// cell with nothing unsettled left is a terminal, and what the builder
// lists is what is still open, not every rule that matched. It applies the
// paper's three reductions during construction:
//
//	(i)   isomorphic subgraphs are shared (hash-consing),
//	(ii)  nodes whose branches coincide are elided,
//	(iii) predicates implied true or false by an ancestor are never
//	      materialized (the "domain-specific" reduction).
//
// Reduction (iii) is obtained by carrying, per field, the set of cells that
// can still reach the current node. A consequence — relied on
// by Algorithm 1 in package compiler — is that the value ranges along the
// paths leaving a component entry node are pairwise disjoint and partition
// the field's domain, and the number of such paths is bounded by the
// number of cells the field's predicates cut the domain into, giving the
// paper's at-most-quadratic bound on In→Out paths.
package bdd

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"camus/internal/interval"
)

// Field describes one BDD variable: a packet field (or state variable)
// with a bounded unsigned domain [0, Max]. Fields are tested in slice
// order; the order is fixed for all paths (ordered BDD).
type Field struct {
	Name string
	Max  uint64
}

// Constraint restricts a field to an interval set. Label, which may be nil,
// yields the source predicate text for diagnostics ("price > 50"); it is
// asked only of the first constraint to bring a predicate to a build, so a
// caller with many should pass something that formats on demand.
type Constraint struct {
	Field int
	Set   interval.Set
	Label fmt.Stringer
}

// Text is a Constraint label that is already a string.
type Text string

func (t Text) String() string { return string(t) }

// Conj is one DNF conjunction: a set of per-field constraints plus the
// payload (typically a rule ID) delivered when the conjunction matches.
type Conj struct {
	Constraints []Constraint
	Payload     int
}

// Node is a BDD node. Non-terminals (Field >= 0) test whether the packet's
// value for Field lies in Set, branching to True or False. Terminals
// (Field == -1) carry the last three fields.
type Node struct {
	ID    int
	Field int
	Set   interval.Set
	Label string
	True  *Node
	False *Node
	// Class is the Classifier's name for the terminal; -1 when the builder
	// has none and the terminal is its payload set.
	Class int
	// Matches reports whether a packet reaching the terminal has anything
	// done to it: the one definition of "matched" that Implies and its
	// callers share.
	Matches bool
	// Payloads, the sorted, deduplicated payloads that matched, is kept only
	// by a builder without a Classifier (and may be empty: the "no rule
	// matched" terminal). A class terminal is reached by many payload sets
	// and names none of them.
	Payloads []int
}

// IsTerminal reports whether the node is a terminal.
func (n *Node) IsTerminal() bool { return n.Field < 0 }

// BDD is a built decision diagram.
type BDD struct {
	Fields []Field
	Root   *Node

	nodes     []*Node // all nodes, terminals included, by ID
	terminals []*Node
}

// Nodes returns every node in the BDD (terminals included), indexed by ID.
func (b *BDD) Nodes() []*Node { return b.nodes }

// Terminals returns the distinct terminal nodes.
func (b *BDD) Terminals() []*Node { return b.terminals }

// NumNodes returns the total node count (terminals included).
func (b *BDD) NumNodes() int { return len(b.nodes) }

// NumInternal returns the number of predicate (non-terminal) nodes.
func (b *BDD) NumInternal() int { return len(b.nodes) - len(b.terminals) }

// Classifier is the accumulator's other half: it holds the set of payloads
// settled on the path the builder is at — Add when a payload's count there
// goes from 0 to 1, Remove when it goes back — and Class names what is done
// to a packet matched by exactly those payloads (possibly none). Equal
// classes must mean equal treatment, and matches says whether that is
// anything at all. It must answer the same way for the life of the arena it
// is given to; every Build leaves it holding nothing, so one Classifier
// serves every build on its arena.
type Classifier interface {
	Add(payload int)
	Remove(payload int)
	Class() (class int, matches bool)
}

// Builder is a persistent hash-cons arena that can be reused across Build
// calls. All nodes live in the arena; the memo, node, and terminal tables
// are keyed purely by content (predicate interval sets and the alive
// conjunctions' constraint/payload hashes), so a later Build whose rule set
// shares conjunctions with an earlier one reuses the unchanged sub-BDDs
// instead of re-expanding them — the compile-time memoization §3 of the
// paper calls for under highly dynamic workloads. Under a Classifier the
// terminals are its classes and the arena keeps no table of payload sets;
// without one a terminal is found by the order-free hash of its payloads.
//
// The arena is invalidated (Reset) automatically when the field list
// changes between builds, since every content key is relative to the
// variable order and domains. A Builder is not safe for concurrent use.
type Builder struct {
	fieldsKey  hash128
	haveFields bool
	classify   Classifier

	memo      map[memoKey]*Node // field transitions: what is built below a set of survivors
	nodeCons  map[nodeKey]*Node
	termCons  map[hash128]*Node // by payload set, without a Classifier
	classCons map[int]*Node     // by class, under a Classifier
	nnodes    int               // arena node counter; arena IDs are never reused
}

// NewBuilder returns an empty reusable arena whose terminals are payload
// sets.
func NewBuilder() *Builder { return NewClassBuilder(nil) }

// NewClassBuilder returns an empty reusable arena whose terminals are the
// classes classify gives payload sets.
func NewClassBuilder(classify Classifier) *Builder {
	bl := &Builder{classify: classify}
	bl.Reset()
	return bl
}

// Reset discards the arena: the next Build starts cold.
func (bl *Builder) Reset() {
	bl.memo = make(map[memoKey]*Node)
	bl.nodeCons = make(map[nodeKey]*Node)
	bl.termCons = make(map[hash128]*Node)
	bl.classCons = make(map[int]*Node)
	bl.nnodes = 0
	bl.haveFields = false
}

// ArenaSize returns the number of nodes retained in the arena, counting
// nodes from earlier builds that are no longer reachable.
func (bl *Builder) ArenaSize() int { return bl.nnodes }

// Retained returns how much the arena holds on to: its nodes plus the
// field-transition and payload-set table entries, stranded ones included.
// Under a Classifier the payload-set table stays empty, but the transition
// table grows with every new set of survivors even when it falls into a
// class that already has its terminal and no node is made, so this, not
// ArenaSize, is what to weigh against a cold build's Retained when deciding
// that Reset pays. It is a measure to compare with itself: what the tables
// hold per node is the builder's business, and a caller that scales its own
// cold reading (compiler.Session) stays calibrated when that moves.
func (bl *Builder) Retained() int { return bl.nnodes + len(bl.memo) + len(bl.termCons) }

// builder holds per-build construction state on top of a shared arena.
type builder struct {
	shared *Builder
	fields []Field
	conjs  []conjInfo
	// preds[f] lists the distinct atomic predicates appearing on field f,
	// in canonical order; refs holds every conjunction's uses of them.
	preds [][]pred
	refs  []predRef
	// reqs[f] lists the distinct requirements (intersections of one
	// conjunction's constraints) on field f, after the empty set at 0 that
	// stands for none; cls[ci*len(fields)+f] indexes conjunction ci's.
	reqs [][]interval.Set
	cls  []int32

	// Scratch. classSlot[f][r] is the class a visit gave requirement r (-1
	// between visits); predSeen[f] is an epoch-stamped set over preds[f] and
	// predAt[f] the place of each predicate a visit uses among those it uses.
	// The rest are stacks that a call takes from and gives back to: only
	// *Node outlives the call.
	classSlot [][]int32
	predSeen  [][]int
	predAt    [][]int32
	predEpoch int
	scratch

	// The accumulator: per distinct payload (payOf is its value, ascending),
	// how many of the conjunctions settled on the path at hand carry it.
	// Without a Classifier it also keeps the payloads counted: a bit each in
	// held, a bit per word of held that is not zero in heldWords, nheld of
	// them, and the order-free sum of their hashes, heldSum.
	payOf     []int
	count     []int32
	held      []uint64
	heldWords []uint64
	nheld     int
	heldSum   hash128

	// steps counts the work that grows with the input: a sweep event, a
	// survivor listed, a conjunction settled or unsettled, a word of a cell
	// set read or written. Tests hold it to the size of the cells, not to
	// their square.
	steps int
}

// scratch is the builder's stacks.
type scratch struct {
	ints      []int32
	words     []uint64
	classes   []class
	cellPreds []cellPred
	nodes     []*Node
}

type heights struct{ ints, words, classes, cellPreds, nodes int }

func (s *scratch) mark() heights {
	return heights{len(s.ints), len(s.words), len(s.classes), len(s.cellPreds), len(s.nodes)}
}

func (s *scratch) release(m heights) {
	s.ints, s.words, s.classes = s.ints[:m.ints], s.words[:m.words], s.classes[:m.classes]
	s.cellPreds, s.nodes = s.cellPreds[:m.cellPreds], s.nodes[:m.nodes]
}

// take takes n elements from the top of a scratch stack, holding whatever
// was there. When the stack has to grow, slices taken earlier keep the array
// they were cut from.
func take[T any](stack *[]T, n int) []T {
	top := len(*stack)
	if top+n > cap(*stack) {
		*stack = append(make([]T, 0, 2*cap(*stack)+n), *stack...)
	}
	*stack = (*stack)[:top+n]
	return (*stack)[top : top+n : top+n]
}

// memoKey identifies a field transition: what is built for the fields after
// field, given the conjunctions that survived it. The alive set is folded
// into a 128-bit content hash; with double 64-bit hashing the collision
// probability over even millions of memo entries is negligible. Because
// the key depends only on content (not on per-build conjunction or
// predicate indices), entries remain valid across Build calls on the same
// field list. alive is the lane-wise *sum* of the alive conjunctions'
// hashes: free of order, formed for a union of classes from the classes'
// own sums without visiting a member, and kept up to date along a sweep by
// adding the classes that enter and subtracting those that leave. aliveLen
// adds the size.
type memoKey struct {
	alive    hash128
	aliveLen int32
	field    int32
}

type nodeKey struct {
	field   int32
	pred    hash128
	trueID  int
	falseID int
}

type hash128 struct{ a, b uint64 }

var hashSeed = hash128{1469598103934665603, 0x9e3779b97f4a7c15}

// word folds x into h order-dependently: FNV-1a in one lane, a
// multiply-xorshift in the other.
func (h hash128) word(x uint64) hash128 {
	h.a = (h.a ^ x) * 1099511628211
	h.b = (h.b ^ x) * 0xff51afd7ed558ccd
	h.b ^= h.b >> 33
	return h
}

func (h hash128) mix(x hash128) hash128   { return h.word(x.a).word(x.b) }
func (h hash128) plus(x hash128) hash128  { return hash128{h.a + x.a, h.b + x.b} }
func (h hash128) minus(x hash128) hash128 { return hash128{h.a - x.a, h.b - x.b} }

// avalanche spreads every input bit over both lanes (the splitmix64
// finalizer, cross-fed). word is close to linear in its first lane; summing
// its results unfinished would let two sets that merely swap a constraint
// between members collide.
func (h hash128) avalanche() hash128 {
	fmix := func(x uint64) uint64 {
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	a := fmix(h.a ^ bits.RotateLeft64(h.b, 32))
	return hash128{a, fmix(h.b + a)}
}

func hashSet(s interval.Set) hash128 {
	h := hashSeed
	for _, iv := range s.Intervals() {
		h = h.word(iv.Lo).word(iv.Hi)
	}
	return h
}

// hashFields keys the arena to a field list: name, domain, and order all
// matter.
func hashFields(fields []Field) hash128 {
	h := hash128{a: 0x16a88fbbbd1ca4d9, b: 0x7fb5d329728ea185}
	for _, f := range fields {
		for i := 0; i < len(f.Name); i++ {
			h = h.word(uint64(f.Name[i]))
		}
		h = h.word(uint64(len(f.Name))).word(f.Max)
	}
	return h
}

type pred struct {
	set      interval.Set
	hash     hash128 // hashSet(set): the predicate's identity in memo and node keys
	label    string
	interned int32 // position in preds[f] before sortPreds
}

// predRef is one use of a predicate by a conjunction: preds[f][idx].
type predRef struct{ f, idx int32 }

type conjInfo struct {
	pay         int32 // the payload's place in payOf
	first, past int32 // the conjunction's predicate uses are refs[first:past]
	last        int32 // the last field a predicate of it tests; -1: none
	// hash is a content hash (payload + clamped constraint sets, in order),
	// avalanched so that sums of them collide no more often than
	// independent 128-bit values would.
	hash hash128
}

// class is the part of a field visit's open conjunctions that shares one
// requirement on the field: a cell satisfies or fails a requirement, and a
// context kills or spares it, so what is decided on the field is decided for
// a whole class at once. A member the field is the last test of settles
// while the class is present; the rest stay open.
type class struct {
	req    interval.Set // empty: the members do not constrain the field
	n      int          // members
	nOpen  int          // members a later field tests
	open   []int32      // those members, as conjunctions
	settle []int32      // the others
	preds  []int32      // distinct indices into preds[f] the members use
	sum    hash128      // of the members' hashes
}

// cellPred is a predicate a field visit uses, over the visit's cells: bit
// c-64*w0 of set is cell c. live is the part of set in the requirement of
// some class that uses the predicate — a context that misses it has killed
// every such class.
type cellPred struct {
	p         *pred
	first     int // the lowest cell of set
	w0        int
	set, live []uint64
}

// Build constructs the reduced ordered multi-terminal BDD for the given
// conjunctions over the given ordered fields, using a fresh arena.
func Build(fields []Field, conjs []Conj) (*BDD, error) {
	return NewBuilder().Build(fields, conjs)
}

// Build constructs the reduced ordered multi-terminal BDD for the given
// conjunctions, reusing sub-BDDs memoized by earlier builds on the same
// arena. The returned BDD is an immutable snapshot: its nodes are copies
// of the arena nodes with dense IDs in construction order, so earlier
// returned BDDs stay valid and the output is bit-identical to a cold
// build of the same inputs.
func (bl *Builder) Build(fields []Field, conjs []Conj) (*BDD, error) {
	b, sum, err := bl.begin(fields, conjs)
	if err != nil {
		return nil, err
	}
	return b.finish(b.run(sum)), nil
}

// run builds the diagram of every conjunction, whose hashes sum to sum: the
// ones that constrain no field are settled from the start, and the
// accumulator is left as it was found, empty.
func (b *builder) run(sum hash128) *Node {
	alive := make([]int32, 0, len(b.conjs))
	var none []int32
	for i := range b.conjs {
		if b.conjs[i].last < 0 {
			none = append(none, int32(i))
		} else {
			alive = append(alive, int32(i))
		}
	}
	b.settle(none)
	root := b.visit(0, alive, sum, len(b.conjs))
	b.unsettle(none)
	return root
}

// begin readies a build on the arena: the conjunctions ingested, the
// predicates in canonical order, and the sum of every conjunction's hash.
func (bl *Builder) begin(fields []Field, conjs []Conj) (b *builder, sum hash128, err error) {
	if fk := hashFields(fields); !bl.haveFields || fk != bl.fieldsKey {
		bl.Reset()
		bl.fieldsKey = fk
		bl.haveFields = true
	}
	b = &builder{shared: bl, fields: fields}
	if err := b.ingest(conjs); err != nil {
		return nil, sum, err
	}
	if len(bl.memo) == 0 {
		// A cold build makes about a field transition per conjunction.
		bl.memo = make(map[memoKey]*Node, len(b.conjs))
	}
	b.sortPreds()
	b.predSeen = make([][]int, len(fields))
	b.predAt = make([][]int32, len(fields))
	b.classSlot = make([][]int32, len(fields))
	for f := range fields {
		b.predSeen[f] = make([]int, len(b.preds[f]))
		b.predAt[f] = make([]int32, len(b.preds[f]))
		b.classSlot[f] = make([]int32, len(b.reqs[f]))
		for r := range b.classSlot[f] {
			b.classSlot[f][r] = -1
		}
	}
	b.count = make([]int32, len(b.payOf))
	if bl.classify == nil {
		b.held = make([]uint64, (len(b.payOf)+63)/64)
		b.heldWords = make([]uint64, (len(b.held)+63)/64)
	}
	for i := range b.conjs {
		sum = sum.plus(b.conjs[i].hash)
	}
	return b, sum, nil
}

func (b *builder) finish(root *Node) *BDD {
	nodes, terminals, pubRoot := extract(root, b.shared.nnodes)
	return &BDD{Fields: b.fields, Root: pubRoot, nodes: nodes, terminals: terminals}
}

// ingest clamps every constraint to its field's domain, drops
// unsatisfiable conjunctions, and interns what is left: the distinct
// predicates per field (a label is formatted only for the constraint that
// introduces one), each conjunction's requirement per field, the last field
// it tests, its payload's place among the distinct payloads, and its
// content hash.
func (b *builder) ingest(conjs []Conj) error {
	nf := len(b.fields)
	b.preds = make([][]pred, nf)
	b.reqs = make([][]interval.Set, nf)
	predIdx := make([]map[hash128]int32, nf)
	reqIdx := make([]map[hash128]int32, nf)
	var payIdx map[int]int32 // see payload
	b.conjs, b.cls = make([]conjInfo, 0, len(conjs)), make([]int32, 0, len(conjs)*nf)
	for f := range predIdx {
		predIdx[f] = make(map[hash128]int32)
		reqIdx[f] = make(map[hash128]int32)
		b.reqs[f] = []interval.Set{{}}
	}
	req := make([]interval.Set, nf) // the conjunction at hand's requirements; empty: none yet
	for _, c := range conjs {
		first := len(b.refs)
		ch := hash128{a: 0x87c37b91114253d5, b: 0x4cf5ad432745937f}.word(uint64(c.Payload)).word(uint64(len(c.Constraints)))
		sat := true
		for _, con := range c.Constraints {
			f := con.Field
			if f < 0 || f >= nf {
				return fmt.Errorf("bdd: constraint references field %d, have %d fields", f, nf)
			}
			set := con.Set
			if !set.IsEmpty() && set.Max() > b.fields[f].Max {
				set = set.Intersect(interval.Full(b.fields[f].Max))
			}
			if !req[f].IsEmpty() {
				req[f] = req[f].Intersect(set)
			} else {
				req[f] = set
			}
			if sat = !req[f].IsEmpty(); !sat {
				break // never matches: dropped below (reduction of dead paths)
			}
			hs := hashSet(set)
			ch = ch.word(uint64(f)).mix(hs)
			if !set.IsFull(b.fields[f].Max) {
				idx, ok := predIdx[f][hs]
				if !ok {
					idx = int32(len(b.preds[f]))
					predIdx[f][hs] = idx
					p := pred{set: set, hash: hs, interned: idx}
					if con.Label != nil {
						p.label = con.Label.String()
					}
					b.preds[f] = append(b.preds[f], p)
				}
				b.refs = append(b.refs, predRef{f: int32(f), idx: idx})
			}
		}
		// Record a satisfiable conjunction's requirements; clear the scratch.
		// (Predicates an unsatisfiable one introduced stay interned, unused.)
		row := len(b.cls)
		for f := 0; sat && f < nf; f++ {
			b.cls = append(b.cls, 0)
		}
		for _, con := range c.Constraints {
			f := con.Field
			if f < 0 || f >= nf || req[f].IsEmpty() {
				continue
			}
			if sat {
				h := hashSet(req[f])
				r, ok := reqIdx[f][h]
				if !ok {
					r = int32(len(b.reqs[f]))
					reqIdx[f][h] = r
					b.reqs[f] = append(b.reqs[f], req[f])
				}
				b.cls[row+f] = r
			}
			req[f] = interval.Set{}
		}
		if !sat {
			b.refs = b.refs[:first]
			continue
		}
		last := int32(-1)
		for _, r := range b.refs[first:] {
			last = max(last, r.f)
		}
		b.conjs = append(b.conjs, conjInfo{b.payload(c.Payload, &payIdx), int32(first), int32(len(b.refs)), last, ch.avalanche()})
	}
	if payIdx != nil {
		// Number the payloads in ascending order after all.
		met := b.payOf
		b.payOf = slices.Clone(met)
		slices.Sort(b.payOf)
		for d, p := range b.payOf {
			payIdx[p] = int32(d)
		}
		for i := range b.conjs {
			b.conjs[i].pay = payIdx[met[b.conjs[i].pay]]
		}
	}
	return nil
}

// payload returns p's place among the distinct payloads, giving it the next
// if it has none. Payloads mostly come ascending, and while they do a new one
// is one above the last and no map is needed; once one does not, *index
// holds every place.
func (b *builder) payload(p int, index *map[int]int32) int32 {
	last := int32(len(b.payOf)) - 1
	if last >= 0 && b.payOf[last] == p {
		return last
	}
	if *index == nil {
		if last < 0 || b.payOf[last] < p {
			b.payOf = append(b.payOf, p)
			return last + 1
		}
		*index = make(map[int]int32, len(b.payOf))
		for d, q := range b.payOf {
			(*index)[q] = int32(d)
		}
	}
	d, ok := (*index)[p]
	if !ok {
		d = int32(len(b.payOf))
		(*index)[p] = d
		b.payOf = append(b.payOf, p)
	}
	return d
}

// extract snapshots the sub-DAG reachable from the arena root into fresh
// nodes with dense IDs. IDs are assigned in true-branch-first post-order —
// exactly the order a cold builder creates nodes in (children complete
// before their parent is consed, the true subtree before the false one) —
// so a warm build's output is indistinguishable from a cold build's.
func extract(root *Node, arenaNodes int) (nodes, terminals []*Node, pubRoot *Node) {
	clones := make([]*Node, arenaNodes)
	var walk func(n *Node) *Node
	walk = func(n *Node) *Node {
		if c := clones[n.ID]; c != nil {
			return c
		}
		var c *Node
		if n.IsTerminal() {
			c = &Node{ID: len(nodes), Field: -1, Class: n.Class, Matches: n.Matches, Payloads: n.Payloads}
			nodes = append(nodes, c)
			terminals = append(terminals, c)
		} else {
			t := walk(n.True)
			e := walk(n.False)
			c = &Node{ID: len(nodes), Field: n.Field, Set: n.Set, Label: n.Label, True: t, False: e}
			nodes = append(nodes, c)
		}
		clones[n.ID] = c
		return c
	}
	pubRoot = walk(root)
	return nodes, terminals, pubRoot
}

// sortPreds orders each field's predicate list canonically — by (min, max,
// Set.Key()) — and rewrites the conjunctions' predicate references to
// match.
func (b *builder) sortPreds() {
	remaps := make([][]int32, len(b.preds)) // per field, interned index -> sorted index
	for f, ps := range b.preds {
		slices.SortFunc(ps, func(p, q pred) int {
			a, c := p.set, q.set
			if a.Min() != c.Min() {
				return cmp.Compare(a.Min(), c.Min())
			}
			if a.Max() != c.Max() {
				return cmp.Compare(a.Max(), c.Max())
			}
			return cmp.Compare(a.Key(), c.Key())
		})
		remaps[f] = make([]int32, len(ps))
		for i, p := range ps {
			remaps[f][p.interned] = int32(i)
		}
	}
	for i, r := range b.refs {
		b.refs[i].idx = remaps[r.f][r.idx]
	}
}

// visit constructs the subgraph for fields[f:] given the conjunctions still
// open on entering field f — alive, each testing f or a later field — and
// the number of conjunctions alive, settled ones included, and the sum of
// their hashes. It buckets the open ones into requirement classes once;
// sweep then works on classes and cells. With nothing open, the subgraph is
// the terminal of what the accumulator holds.
func (b *builder) visit(f int, alive []int32, sum hash128, n int) *Node {
	if len(alive) == 0 {
		return b.terminal()
	}
	defer b.release(b.mark())

	classes, which := b.bucket(f, alive)
	if len(classes) == 1 && classes[0].req.IsEmpty() {
		// Nothing open constrains f: everything survives it.
		key := memoKey{field: int32(f), alive: sum, aliveLen: int32(n)}
		nd, ok := b.shared.memo[key]
		if !ok {
			nd = b.visit(f+1, alive, sum, n)
			b.shared.memo[key] = nd
		}
		return nd
	}
	b.deal(f, alive, classes, which)
	for k := range classes {
		sum = sum.minus(classes[k].sum)
	}
	return b.sweep(f, classes, sum, n-len(alive))
}

// bucket gives every requirement on f among the alive conjunctions a class,
// with its size, open size and hash sum, and says which class each alive
// position is in.
func (b *builder) bucket(f int, alive []int32) (classes []class, which []int32) {
	nf, slot, classMark := len(b.fields), b.classSlot[f], len(b.classes)
	which = take(&b.ints, len(alive))
	for pos, ci := range alive {
		r := b.cls[int(ci)*nf+f]
		k := slot[r]
		if k < 0 {
			k = int32(len(b.classes) - classMark)
			slot[r] = k
			b.classes = append(b.classes, class{req: b.reqs[f][r]})
		}
		which[pos] = k
		c := &b.classes[classMark+int(k)]
		c.n++
		if int(b.conjs[ci].last) > f {
			c.nOpen++
		}
		c.sum = c.sum.plus(b.conjs[ci].hash)
	}
	for _, ci := range alive {
		slot[b.cls[int(ci)*nf+f]] = -1
	}
	return b.classes[classMark:], which
}

// deal lists each class's open and settling members and the distinct
// predicates on f they use.
func (b *builder) deal(f int, alive []int32, classes []class, which []int32) {
	members := take(&b.ints, len(alive))
	for k := range classes {
		c := &classes[k]
		c.open, c.settle, members = members[:0:c.nOpen], members[c.nOpen:c.nOpen:c.n], members[c.n:]
	}
	for pos, k := range which {
		c, ci := &classes[k], alive[pos]
		if int(b.conjs[ci].last) > f {
			c.open = append(c.open, ci)
		} else {
			c.settle = append(c.settle, ci)
		}
	}
	seen := b.predSeen[f]
	for k := range classes {
		c := &classes[k]
		b.predEpoch++
		first := len(b.ints)
		for _, members := range [2][]int32{c.open, c.settle} {
			for _, ci := range members {
				for _, r := range b.refs[b.conjs[ci].first:b.conjs[ci].past] {
					if int(r.f) == f && seen[r.idx] != b.predEpoch {
						seen[r.idx] = b.predEpoch
						b.ints = append(b.ints, r.idx) // onto the stack's top
					}
				}
			}
		}
		c.preds = b.ints[first:len(b.ints):len(b.ints)]
	}
}

// sweep expands field f for a visit's classes in two passes over the
// elementary cells — the intervals between consecutive endpoints of the
// predicates the classes use, inside each of which every predicate and so
// every requirement is constant.
//
// The first pass finds what each cell leads to. It walks the cells in order,
// a class entering where a run of its requirement starts and leaving where
// it ends, and keeps the hash sum and count of the classes present on top of
// the settled conjunctions' — settled, whose hashes sum to sum, and n — the
// key of the field transition, so the open conjunctions are listed and the
// fields after f visited only for a set of survivors the arena has not met,
// and only at a cell where the set changed. A class's settling members are
// in the accumulator while it is present, and leave it when the walk ends.
//
// The second pass (expand) builds the predicate nodes above the cells.
func (b *builder) sweep(f int, classes []class, settled hash128, n int) *Node {
	// The predicates in use, in canonical order.
	b.predEpoch++
	seen, at, first := b.predSeen[f], b.predAt[f], len(b.ints)
	for k := range classes {
		for _, pi := range classes[k].preds {
			if seen[pi] != b.predEpoch {
				seen[pi] = b.predEpoch
				b.ints = append(b.ints, pi)
			}
		}
	}
	used := b.ints[first:len(b.ints):len(b.ints)]
	slices.Sort(used)

	// The cells, by their first values. The value after an interval starts
	// one unless the interval ends the domain (which may end the integers).
	top := b.fields[f].Max
	first = len(b.words)
	b.words = append(b.words, 0)
	for j, pi := range used {
		at[pi] = int32(j)
		for _, iv := range b.preds[f][pi].set.Intervals() {
			b.words = append(b.words, iv.Lo)
			if iv.Hi < top {
				b.words = append(b.words, iv.Hi+1)
			}
		}
	}
	slices.Sort(b.words[first:])
	b.words = b.words[:first+len(slices.Compact(b.words[first:]))]
	starts := b.words[first:len(b.words):len(b.words)]
	ncells := len(starts)
	// cellRun is the run of cells an interval of a predicate in use covers.
	cellRun := func(iv interval.Interval) (lo, hi int) {
		lo, _ = slices.BinarySearch(starts, iv.Lo)
		if hi = ncells; iv.Hi < top {
			hi, _ = slices.BinarySearch(starts, iv.Hi+1)
		}
		return lo, hi
	}

	// Each predicate in use as a set of cells, and under it the requirements
	// of the classes that use it. Events — cell, then leave before enter,
	// then class — sort into the order the walk meets them.
	cps := take(&b.cellPreds, len(used))
	for j, pi := range used {
		p := &b.preds[f][pi]
		ivs := p.set.Intervals()
		lo, hi := cellRun(ivs[0])
		end := hi
		if len(ivs) > 1 {
			_, end = cellRun(ivs[len(ivs)-1])
		}
		w0, n := lo>>6, (end+63)>>6-lo>>6
		buf := take(&b.words, 2*n)
		clear(buf)
		cps[j] = cellPred{p: p, first: lo, w0: w0, set: buf[:n], live: buf[n:]}
		b.steps += fillRun(buf[:n], w0, lo, hi)
		for _, iv := range ivs[1:] {
			lo, hi := cellRun(iv)
			b.steps += fillRun(buf[:n], w0, lo, hi)
		}
	}
	const enter = 1 << 31
	first = len(b.words)
	for k := range classes {
		for _, iv := range classes[k].req.Intervals() {
			lo, hi := cellRun(iv)
			b.words = append(b.words, uint64(lo)<<32|enter|uint64(k))
			if hi < ncells {
				b.words = append(b.words, uint64(hi)<<32|uint64(k))
			}
			for _, pi := range classes[k].preds {
				cp := &cps[at[pi]]
				b.steps += fillRun(cp.live, cp.w0, lo, hi)
			}
		}
	}
	events := b.words[first:len(b.words):len(b.words)]
	slices.Sort(events)

	// The walk. present lists the classes with open members that the cell at
	// hand satisfies, where says at which place, and open counts those
	// members; the class that does not constrain f is always in.
	cells := take(&b.nodes, ncells)
	present, where := take(&b.ints, len(classes))[:0], take(&b.ints, len(classes))
	sum, open := settled, 0
	for k := range classes {
		if c := &classes[k]; c.req.IsEmpty() {
			present, sum, n, open = append(present, int32(k)), sum.plus(c.sum), n+c.n, c.nOpen
		}
	}
	for c := range cells {
		moved := c == 0
		for ; len(events) > 0 && int(events[0]>>32) == c; events = events[1:] {
			k := int32(events[0] & (enter - 1))
			cl := &classes[k]
			if events[0]&enter != 0 {
				if cl.nOpen > 0 {
					where[k] = int32(len(present))
					present = append(present, k)
				}
				sum, n, open = sum.plus(cl.sum), n+cl.n, open+cl.nOpen
				b.settle(cl.settle)
			} else {
				if cl.nOpen > 0 {
					last := present[len(present)-1]
					present[where[k]], where[last] = last, where[k]
					present = present[:len(present)-1]
				}
				sum, n, open = sum.minus(cl.sum), n-cl.n, open-cl.nOpen
				b.unsettle(cl.settle)
			}
			moved = true
			b.steps++
		}
		if moved {
			cells[c] = b.transition(f, classes, present, sum, n, open)
		} else {
			cells[c] = cells[c-1]
		}
	}
	// The classes the last cell satisfies never left.
	for k := range classes {
		if c := &classes[k]; !c.req.IsEmpty() && c.req.Max() == top {
			b.unsettle(c.settle)
		}
	}

	ctx := take(&b.words, (ncells+63)/64)
	clear(ctx)
	b.steps += fillRun(ctx, 0, 0, ncells)
	return b.expand(f, cps, cells, 0, ctx, 0)
}

// fillRun sets cells [lo, hi) in a cell set whose first word holds cell
// 64*w0, and returns the number of words it wrote.
func fillRun(set []uint64, w0, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	lo, hi = lo-w0<<6, hi-w0<<6
	wl, wh := lo>>6, (hi-1)>>6
	head, tail := ^uint64(0)<<(lo&63), ^uint64(0)>>(63-(hi-1)&63)
	if wl == wh {
		set[wl] |= head & tail
		return 1
	}
	set[wl] |= head
	for w := wl + 1; w < wh; w++ {
		set[w] = ^uint64(0)
	}
	set[wh] |= tail
	return wh - wl + 1
}

// transition returns what field f's survivors — the n conjunctions, settled
// ones included, whose hashes sum to sum — lead to in the fields after f.
// Only for a set the arena has not met are the open members of the classes
// present listed.
func (b *builder) transition(f int, classes []class, present []int32, sum hash128, n, open int) *Node {
	key := memoKey{field: int32(f), alive: sum, aliveLen: int32(n)}
	if nd, ok := b.shared.memo[key]; ok {
		return nd
	}
	mark := len(b.ints)
	survivors := take(&b.ints, open)[:0]
	for _, k := range present {
		survivors = append(survivors, classes[k].open...)
	}
	b.steps += open
	nd := b.visit(f+1, survivors, sum, n)
	b.ints = b.ints[:mark]
	b.shared.memo[key] = nd
	return nd
}

// expand is the per-predicate Shannon expansion within field f, over cells:
// ctx, whose first word holds cell 64*w0 and whose first and last words are
// not zero, is the set of cells that can still reach this point, cells[c]
// what cell c leads to, and from the first predicate in use an ancestor has
// not already decided (a context only shrinks on the way down, so what it
// decided stays decided). expand may overwrite ctx.
//
// The predicate tested is the first, in canonical order, that some class
// not yet killed uses — one whose requirement the context still meets — and
// that the context does not already decide (one it does is implied true or
// false: reduction (iii)). A predicate that merely cuts the context will
// not do: a killed class's predicates must not be materialized, and testing
// any other than the first gives a different, if equivalent, diagram.
func (b *builder) expand(f int, cps []cellPred, cells []*Node, w0 int, ctx []uint64, from int) *Node {
	first := w0<<6 + bits.TrailingZeros64(ctx[0])
	last := (w0+len(ctx))<<6 - 1 - bits.LeadingZeros64(ctx[len(ctx)-1])
	if first == last {
		return cells[first]
	}
	// Predicates are in order of their lowest cells: one that starts past
	// the context ends the search.
	for j := from; j < len(cps) && cps[j].first <= last; j++ {
		cp := &cps[j]
		if !b.meets(w0, ctx, cp.w0, cp.live) || b.within(w0, ctx, cp.w0, cp.set) {
			continue
		}
		// ctx ∩ p is cut fresh and ctx ∖ p takes ctx's place; neither is
		// empty, the one meeting live and the other not within set.
		lo, hi := max(w0, cp.w0), min(w0+len(ctx), cp.w0+len(cp.set))
		mark := len(b.words)
		in := take(&b.words, hi-lo)
		for w := lo; w < hi; w++ {
			in[w-lo] = ctx[w-w0] & cp.set[w-cp.w0]
			ctx[w-w0] &^= cp.set[w-cp.w0]
		}
		b.steps += hi - lo
		tw0, in := b.trim(lo, in)
		t := b.expand(f, cps, cells, tw0, in, j+1)
		b.words = b.words[:mark]
		ew0, out := b.trim(w0, ctx)
		e := b.expand(f, cps, cells, ew0, out, j+1)
		if t == e {
			return t // reduction (ii): a test whose branches coincide is elided
		}
		return b.consNode(f, cp.p, t, e)
	}
	// Field f is resolved for every class the context has not killed. By
	// construction ctx is a cell of the partition their predicates induce,
	// so it is inside or disjoint from each requirement, and a killed class's
	// requirement it misses: all its cells lead to the same place.
	return cells[first]
}

// trim drops a cell set's zero words at either end.
func (b *builder) trim(w0 int, set []uint64) (int, []uint64) {
	n := len(set)
	for set[0] == 0 {
		w0, set = w0+1, set[1:]
	}
	for set[len(set)-1] == 0 {
		set = set[:len(set)-1]
	}
	b.steps += n - len(set)
	return w0, set
}

// meets reports whether two cell sets share a cell.
func (b *builder) meets(w0 int, s []uint64, v0 int, t []uint64) bool {
	for w, hi := max(w0, v0), min(w0+len(s), v0+len(t)); w < hi; w++ {
		b.steps++
		if s[w-w0]&t[w-v0] != 0 {
			return true
		}
	}
	return false
}

// within reports whether cell set s, its end words not zero, is inside t.
func (b *builder) within(w0 int, s []uint64, v0 int, t []uint64) bool {
	if w0 < v0 || w0+len(s) > v0+len(t) {
		return false
	}
	for i, word := range s {
		b.steps++
		if word&^t[w0-v0+i] != 0 {
			return false
		}
	}
	return true
}

// settle counts the payloads of conjunctions into the accumulator, and
// unsettle counts them out. Only a count that leaves or reaches zero
// changes the set held: the Classifier's, or without one the builder's.
func (b *builder) settle(conjs []int32) {
	for _, ci := range conjs {
		d := b.conjs[ci].pay
		if b.count[d]++; b.count[d] > 1 {
			continue
		}
		if cl := b.shared.classify; cl != nil {
			cl.Add(b.payOf[d])
		} else {
			b.held[d>>6] |= 1 << (d & 63)
			b.heldWords[d>>12] |= 1 << (d >> 6 & 63)
			b.nheld++
			b.heldSum = b.heldSum.plus(payloadHash(b.payOf[d]))
		}
	}
	b.steps += len(conjs)
}

func (b *builder) unsettle(conjs []int32) {
	for _, ci := range conjs {
		d := b.conjs[ci].pay
		if b.count[d]--; b.count[d] > 0 {
			continue
		}
		if cl := b.shared.classify; cl != nil {
			cl.Remove(b.payOf[d])
		} else {
			if b.held[d>>6] &^= 1 << (d & 63); b.held[d>>6] == 0 {
				b.heldWords[d>>12] &^= 1 << (d >> 6 & 63)
			}
			b.nheld--
			b.heldSum = b.heldSum.minus(payloadHash(b.payOf[d]))
		}
	}
	b.steps += len(conjs)
}

// payloadHash is a payload's term in the accumulator's order-free sum.
func payloadHash(p int) hash128 { return hash128{uint64(p), 0x4cf5ad432745937f}.avalanche() }

// terminal hash-conses the terminal node for the payloads the accumulator
// holds: under a Classifier on the class it gives them, and without one on
// the payload set, found by its hash sum and listed, in order, only when new
// to the arena.
func (b *builder) terminal() *Node {
	sh := b.shared
	if sh.classify != nil {
		class, matches := sh.classify.Class()
		n := sh.classCons[class]
		if n == nil {
			n = b.newTerminal(class, matches, nil)
			sh.classCons[class] = n
		}
		return n
	}
	if n, ok := sh.termCons[b.heldSum]; ok {
		return n
	}
	payloads := make([]int, 0, b.nheld)
	for v, top := range b.heldWords {
		for ; top != 0; top &= top - 1 {
			w := v<<6 + bits.TrailingZeros64(top)
			for word := b.held[w]; word != 0; word &= word - 1 {
				payloads = append(payloads, b.payOf[w<<6+bits.TrailingZeros64(word)])
			}
		}
	}
	n := b.newTerminal(-1, len(payloads) > 0, payloads)
	sh.termCons[b.heldSum] = n
	return n
}

func (b *builder) newTerminal(class int, matches bool, payloads []int) *Node {
	n := &Node{ID: b.shared.nnodes, Field: -1, Class: class, Matches: matches, Payloads: payloads}
	b.shared.nnodes++
	return n
}

// consNode hash-conses an internal node: reduction (i). Node IDs are
// arena-wide and monotonic; the snapshot pass renumbers them per build.
func (b *builder) consNode(f int, p *pred, t, e *Node) *Node {
	key := nodeKey{field: int32(f), pred: p.hash, trueID: t.ID, falseID: e.ID}
	if n, ok := b.shared.nodeCons[key]; ok {
		return n
	}
	n := &Node{ID: b.shared.nnodes, Field: f, Set: p.set, Label: p.label, True: t, False: e}
	b.shared.nnodes++
	b.shared.nodeCons[key] = n
	return n
}

// Lookup walks the BDD for a packet whose field values are given in field
// order (values[i] is the value of Fields[i]) and returns the terminal it
// reaches. It is the reference semantics that the generated match-action
// tables must agree with.
func (b *BDD) Lookup(values []uint64) *Node {
	n := b.Root
	for !n.IsTerminal() {
		if n.Set.Contains(values[n.Field]) {
			n = n.True
		} else {
			n = n.False
		}
	}
	return n
}

// CountPaths returns the number of distinct root-to-terminal paths,
// saturating at MaxUint64. This is the entry count a naive single
// wide-table encoding would need (one TCAM entry per distinguishable
// region of the match space) — the approach §3.2 rejects because it is
// exponential in the worst case.
func (b *BDD) CountPaths() uint64 {
	memo := make(map[int]uint64)
	var count func(n *Node) uint64
	count = func(n *Node) uint64 {
		if n.IsTerminal() {
			return 1
		}
		if c, ok := memo[n.ID]; ok {
			return c
		}
		t := count(n.True)
		e := count(n.False)
		c := t + e
		if c < t { // overflow
			c = ^uint64(0)
		}
		memo[n.ID] = c
		return c
	}
	if b.Root == nil {
		return 0
	}
	return count(b.Root)
}

// Dot renders the BDD in Graphviz dot format (solid edges = true branch,
// dashed = false branch, mirroring Figure 3 in the paper). terminal labels
// the terminals: the diagram does not know what its classes stand for.
func (b *BDD) Dot(terminal func(*Node) string) string {
	var sb strings.Builder
	sb.WriteString("digraph bdd {\n  rankdir=TB;\n")
	var walk func(n *Node, seen map[int]bool)
	walk = func(n *Node, seen map[int]bool) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		if n.IsTerminal() {
			fmt.Fprintf(&sb, "  n%d [shape=box,label=%q];\n", n.ID, terminal(n))
			return
		}
		label := n.Label
		if label == "" {
			label = fmt.Sprintf("%s ∈ %s", b.Fields[n.Field].Name, n.Set)
		}
		fmt.Fprintf(&sb, "  n%d [shape=ellipse,label=%q];\n", n.ID, label)
		fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.ID, n.True.ID)
		fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed];\n", n.ID, n.False.ID)
		walk(n.True, seen)
		walk(n.False, seen)
	}
	walk(b.Root, make(map[int]bool))
	sb.WriteString("}\n")
	return sb.String()
}
