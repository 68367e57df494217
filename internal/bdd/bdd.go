// Package bdd implements the multi-terminal binary decision diagram at the
// heart of the Camus compiler (§3.2 of the paper).
//
// Non-terminal nodes test an atomic predicate on a packet field; terminal
// nodes hold the merged set of rule payloads (action sets) that match.
// The builder performs Shannon expansion over the rules' DNF conjunctions
// and applies the paper's three reductions during construction:
//
//	(i)   isomorphic subgraphs are shared (hash-consing),
//	(ii)  nodes whose branches coincide are elided,
//	(iii) predicates implied true or false by an ancestor are never
//	      materialized (the "domain-specific" reduction).
//
// Reduction (iii) is obtained by carrying, per field, the interval set of
// values that can still reach the current node. A consequence — relied on
// by Algorithm 1 in package compiler — is that the value ranges along the
// paths leaving a component entry node are pairwise disjoint and partition
// the field's domain, and the number of such paths is bounded by the
// number of cells the field's predicates cut the domain into, giving the
// paper's at-most-quadratic bound on In→Out paths.
package bdd

import (
	"fmt"
	"math/bits"
	"sort"
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

// Constraint restricts a field to an interval set. Label yields the source
// predicate text for diagnostics ("price > 50"); it may be nil. The
// builder formats it only for the first constraint to bring a given
// predicate to a build, so a caller with many constraints should hand over
// something that formats on demand rather than a formatted string.
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
// (Field == -1) carry the sorted, deduplicated payload union.
type Node struct {
	ID    int
	Field int
	Set   interval.Set
	Label string
	True  *Node
	False *Node
	// Payloads is non-nil only for terminals (and may be empty: the
	// "no rule matched" terminal).
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

// Builder is a persistent hash-cons arena that can be reused across Build
// calls. All nodes live in the arena; the memo, node, and terminal tables
// are keyed purely by content (predicate interval sets, context sets, and
// the alive conjunctions' constraint/payload hashes), so a later Build
// whose rule set shares conjunctions with an earlier one reuses the
// unchanged sub-BDDs instead of re-expanding them — the compile-time
// memoization §3 of the paper calls for under highly dynamic workloads.
//
// The arena is invalidated (Reset) automatically when the field list
// changes between builds, since every content key is relative to the
// variable order and domains. A Builder is not safe for concurrent use.
type Builder struct {
	fieldsKey  hash128
	haveFields bool

	memo     map[memoKey]*Node
	nodeCons map[nodeKey]*Node
	termCons map[hash128]*Node
	nnodes   int // arena node counter; arena IDs are never reused
}

// NewBuilder returns an empty reusable arena.
func NewBuilder() *Builder {
	bl := &Builder{}
	bl.Reset()
	return bl
}

// Reset discards the arena: the next Build starts cold.
func (bl *Builder) Reset() {
	bl.memo = make(map[memoKey]*Node)
	bl.nodeCons = make(map[nodeKey]*Node)
	bl.termCons = make(map[hash128]*Node)
	bl.nnodes = 0
	bl.haveFields = false
}

// ArenaSize returns the number of nodes retained in the arena, counting
// nodes from earlier builds that are no longer reachable. Callers can use
// the ratio of ArenaSize to the live BDD size to decide when Reset pays.
func (bl *Builder) ArenaSize() int { return bl.nnodes }

// builder holds per-build construction state on top of a shared arena.
type builder struct {
	shared *Builder

	fields []Field
	conjs  []conjInfo
	// conjHash[i] is a content hash of conjs[i] (payload + clamped
	// constraint sets, in order), avalanched so that sums of them collide
	// no more often than independent 128-bit values would.
	conjHash []hash128
	// preds[f] lists the distinct atomic predicates appearing on field f,
	// in canonical order; refs holds every conjunction's uses of them, one
	// backing array for the build.
	preds [][]pred
	refs  []predRef
	// reqs[f] lists the distinct requirements (intersections of one
	// conjunction's constraints) on field f. cls is the conjunction-major
	// table of each conjunction's requirement on each field, as an index
	// into reqs[f], or -1 where it has none.
	reqs [][]interval.Set
	cls  []int32

	// Scratch for visit and chain. classSlot[f][r] is the visit-local class
	// that requirement r of field f was given (-1 between visits).
	// predSeen/predEpoch are an epoch-stamped "seen" set over preds[f].
	// ints and classes are stacks: a visit or a chain step takes what it
	// needs from the top and gives it back on return, which is sound because
	// nothing but *Node outlives the call that allocated it.
	classSlot [][]int32
	predSeen  [][]int
	predEpoch int
	ints      []int32
	classes   []class
	bits      []uint64       // one bit per alive position, to list survivors in order
	full      []interval.Set // full[f] is field f's whole domain
}

// memoKey identifies a (sub)problem during construction. The alive
// conjunction set, the chosen predicate, and the field context are folded
// into 128-bit content hashes; with double 64-bit hashing the collision
// probability over even millions of memo entries is negligible. Because
// the key depends only on content (not on per-build conjunction or
// predicate indices), entries remain valid across Build calls on the same
// field list.
//
// alive is the *sum* of the alive conjunctions' hashes, lane by lane,
// modulo 2^64. A sum is free of order, so a set assembled class by class
// keys the same as one listed conjunction by conjunction; it can be formed
// for a union of classes from the classes' own sums, without visiting a
// member; and it still depends on nothing but content. aliveLen makes the
// key a function of the multiset's size as well.
type memoKey struct {
	kind     uint8 // 'B' for branch problems, 'X' for field transitions
	field    int32
	pred     hash128
	ctx      hash128
	alive    hash128
	aliveLen int32
}

type nodeKey struct {
	field   int32
	pred    hash128
	trueID  int
	falseID int
}

type hash128 struct{ a, b uint64 }

func (h hash128) plus(x hash128) hash128 { return hash128{h.a + x.a, h.b + x.b} }

// avalanche spreads every input bit over both lanes (the splitmix64
// finalizer, cross-fed). The order-dependent folds below are close to
// linear in their first lane; summing them unfinished would let two sets
// that merely swap a constraint between members collide.
func (h hash128) avalanche() hash128 {
	fmix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		return x ^ x>>31
	}
	a := fmix(h.a ^ bits.RotateLeft64(h.b, 32))
	return hash128{a, fmix(h.b + a)}
}

func hashInts(ids []int) hash128 {
	h1 := uint64(1469598103934665603)
	h2 := uint64(0x9e3779b97f4a7c15)
	for _, id := range ids {
		x := uint64(id)
		h1 ^= x
		h1 *= 1099511628211
		h2 = (h2 ^ x) * 0xff51afd7ed558ccd
		h2 ^= h2 >> 33
	}
	return hash128{h1, h2}
}

func hashSet(s interval.Set) hash128 {
	h1 := uint64(1469598103934665603)
	h2 := uint64(0x9e3779b97f4a7c15)
	for _, iv := range s.Intervals() {
		for _, x := range [2]uint64{iv.Lo, iv.Hi} {
			h1 ^= x
			h1 *= 1099511628211
			h2 = (h2 ^ x) * 0xff51afd7ed558ccd
			h2 ^= h2 >> 33
		}
	}
	return hash128{h1, h2}
}

func hashString(s string) hash128 {
	h1 := uint64(1469598103934665603)
	h2 := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(s); i++ {
		x := uint64(s[i])
		h1 ^= x
		h1 *= 1099511628211
		h2 = (h2 ^ x) * 0xff51afd7ed558ccd
		h2 ^= h2 >> 33
	}
	return hash128{h1, h2}
}

// mix128 folds x into h order-dependently.
func mix128(h, x hash128) hash128 {
	for _, v := range [2]uint64{x.a, x.b} {
		h.a ^= v
		h.a *= 1099511628211
		h.b = (h.b ^ v) * 0xff51afd7ed558ccd
		h.b ^= h.b >> 33
	}
	return h
}

// hashFields keys the arena to a field list: name, domain, and order all
// matter.
func hashFields(fields []Field) hash128 {
	h := hash128{a: 0x16a88fbbbd1ca4d9, b: 0x7fb5d329728ea185}
	for _, f := range fields {
		h = mix128(h, hashString(f.Name))
		h = mix128(h, hash128{a: f.Max, b: uint64(len(f.Name))})
	}
	return h
}

type pred struct {
	set   interval.Set
	hash  hash128 // hashSet(set): the predicate's identity in memo and node keys
	label string
}

// predRef is one use of a predicate by a conjunction: preds[f][idx].
type predRef struct{ f, idx int32 }

type conjInfo struct {
	payload int
	refs    []predRef
}

// class is the part of a field visit's alive conjunctions that shares one
// requirement on the field. Within the field a context either kills a
// requirement or it does not, and at the end it either satisfies it or it
// does not, so everything the per-predicate chain decides, it decides for a
// whole class at once.
type class struct {
	req     interval.Set // empty: the members do not constrain the field
	members []int32      // positions in the visit's alive list, ascending
	preds   []int32      // distinct indices into preds[f] the members use
	sum     hash128      // of the members' conjHash
}

// fieldVisit is what one visit of a field hands its chain: the field, the
// conjunctions alive on entry, and their classes.
type fieldVisit struct {
	f       int
	alive   []int32
	classes []class
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
	if fk := hashFields(fields); !bl.haveFields || fk != bl.fieldsKey {
		bl.Reset()
		bl.fieldsKey = fk
		bl.haveFields = true
	}
	b := &builder{shared: bl, fields: fields}
	if err := b.ingest(conjs); err != nil {
		return nil, err
	}
	b.sortPreds()

	b.predSeen = make([][]int, len(fields))
	b.classSlot = make([][]int32, len(fields))
	for f := range fields {
		b.predSeen[f] = make([]int, len(b.preds[f]))
		b.classSlot[f] = make([]int32, len(b.reqs[f]))
		for r := range b.classSlot[f] {
			b.classSlot[f][r] = -1
		}
	}
	alive := make([]int32, len(b.conjs))
	var sum hash128
	for i := range alive {
		alive[i] = int32(i)
		sum = sum.plus(b.conjHash[i])
	}
	root := b.visit(0, alive, sum)
	nodes, terminals, pubRoot := extract(root, bl.nnodes)
	return &BDD{Fields: fields, Root: pubRoot, nodes: nodes, terminals: terminals}, nil
}

// ingest clamps every constraint to its field's domain, drops
// unsatisfiable conjunctions, and interns what is left: the distinct
// predicates per field (a label is formatted only for the constraint that
// introduces one), each conjunction's requirement per field, and its
// content hash.
func (b *builder) ingest(conjs []Conj) error {
	nf := len(b.fields)
	b.preds = make([][]pred, nf)
	b.reqs = make([][]interval.Set, nf)
	b.full = make([]interval.Set, nf)
	predIdx := make([]map[hash128]int32, nf)
	reqIdx := make([]map[hash128]int32, nf)
	for f := range predIdx {
		predIdx[f] = make(map[hash128]int32)
		reqIdx[f] = make(map[hash128]int32)
		b.full[f] = interval.Full(b.fields[f].Max)
	}
	nrefs := 0
	for _, c := range conjs {
		nrefs += len(c.Constraints)
	}
	b.refs = make([]predRef, 0, nrefs)
	b.cls = make([]int32, 0, len(conjs)*nf)
	b.conjs = make([]conjInfo, 0, len(conjs))
	b.conjHash = make([]hash128, 0, len(conjs))

	// The conjunction at hand's requirement per field, empty where it has
	// none yet, and that set's hash.
	req := make([]interval.Set, nf)
	reqHash := make([]hash128, nf)

	for _, c := range conjs {
		first := len(b.refs)
		ch := mix128(hash128{a: 0x87c37b91114253d5, b: 0x4cf5ad432745937f},
			hash128{a: uint64(c.Payload), b: uint64(len(c.Constraints))})
		sat := true
		for _, con := range c.Constraints {
			f := con.Field
			if f < 0 || f >= nf {
				return fmt.Errorf("bdd: constraint references field %d, have %d fields", f, nf)
			}
			max := b.fields[f].Max
			set := con.Set.Intersect(b.full[f])
			if set.IsEmpty() {
				sat = false
				break
			}
			hs := hashSet(set)
			ch = mix128(ch, hash128{a: uint64(f), b: 0})
			ch = mix128(ch, hs)
			if prev := req[f]; prev.IsEmpty() {
				req[f], reqHash[f] = set, hs
			} else {
				both := prev.Intersect(set)
				if both.IsEmpty() {
					sat = false
					break
				}
				req[f], reqHash[f] = both, hashSet(both)
			}
			if !set.IsFull(max) {
				idx, ok := predIdx[f][hs]
				if !ok {
					idx = int32(len(b.preds[f]))
					predIdx[f][hs] = idx
					label := ""
					if con.Label != nil {
						label = con.Label.String()
					}
					b.preds[f] = append(b.preds[f], pred{set: set, hash: hs, label: label})
				}
				b.refs = append(b.refs, predRef{f: int32(f), idx: idx})
			}
		}
		if !sat {
			// Unsatisfiable conjunction: drop (reduction of dead paths). The
			// predicates it introduced stay interned, unused.
			b.refs = b.refs[:first]
			for _, con := range c.Constraints {
				if con.Field >= 0 && con.Field < nf {
					req[con.Field] = interval.Set{}
				}
			}
			continue
		}
		row := len(b.cls)
		for f := 0; f < nf; f++ {
			b.cls = append(b.cls, -1)
		}
		for _, con := range c.Constraints {
			f := con.Field
			if req[f].IsEmpty() {
				continue // an earlier constraint on f already recorded it
			}
			r, ok := reqIdx[f][reqHash[f]]
			if !ok {
				r = int32(len(b.reqs[f]))
				reqIdx[f][reqHash[f]] = r
				b.reqs[f] = append(b.reqs[f], req[f])
			}
			b.cls[row+f] = r
			req[f] = interval.Set{}
		}
		b.conjs = append(b.conjs, conjInfo{payload: c.Payload, refs: b.refs[first:len(b.refs):len(b.refs)]})
		b.conjHash = append(b.conjHash, ch.avalanche())
	}
	return nil
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
			c = &Node{ID: len(nodes), Field: -1, Payloads: n.Payloads}
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
	remaps := make([][]int32, len(b.preds))
	for f, ps := range b.preds {
		order := make([]int, len(ps))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			a, c := ps[order[i]].set, ps[order[j]].set
			if a.Min() != c.Min() {
				return a.Min() < c.Min()
			}
			if a.Max() != c.Max() {
				return a.Max() < c.Max()
			}
			return a.Key() < c.Key()
		})
		remaps[f] = make([]int32, len(ps)) // old index -> new index
		sorted := make([]pred, len(ps))
		for newIdx, oldIdx := range order {
			remaps[f][oldIdx] = int32(newIdx)
			sorted[newIdx] = ps[oldIdx]
		}
		b.preds[f] = sorted
	}
	for i, r := range b.refs {
		b.refs[i].idx = remaps[r.f][r.idx]
	}
}

// takeInts takes n int32s from the top of the scratch stack; the caller
// gives them back with b.ints = b.ints[:mark]. When the stack has to grow,
// slices taken earlier keep the array they were cut from.
func (b *builder) takeInts(n int) []int32 {
	top := len(b.ints)
	if top+n > cap(b.ints) {
		b.ints = make([]int32, top, 2*cap(b.ints)+n)
	}
	b.ints = b.ints[:top+n]
	return b.ints[top : top+n : top+n]
}

// visit constructs the subgraph for fields[f:] given the conjunctions still
// alive on entering field f and the sum of their hashes. It buckets them
// into requirement classes once; chain then works on classes.
func (b *builder) visit(f int, alive []int32, sum hash128) *Node {
	if f == len(b.fields) {
		return b.terminal(alive)
	}
	if len(b.preds[f]) == 0 {
		return b.cross(f, alive, sum) // nothing constrains f: everything survives it
	}
	intMark, classMark := len(b.ints), len(b.classes)
	defer func() { b.ints, b.classes = b.ints[:intMark], b.classes[:classMark] }()

	// First pass: give every requirement present a class, in order of
	// first appearance, and count its members.
	nf := len(b.fields)
	slot := b.classSlot[f]
	bound := len(b.reqs[f]) + 1
	if len(alive) < bound {
		bound = len(alive)
	}
	counts := b.takeInts(bound)[:0]
	wild := int32(-1) // the class of conjunctions that do not constrain f
	for _, ci := range alive {
		r := b.cls[int(ci)*nf+f]
		k := wild
		if r >= 0 {
			k = slot[r]
		}
		if k < 0 {
			k = int32(len(counts))
			counts = append(counts, 0)
			if r >= 0 {
				slot[r] = k
				b.classes = append(b.classes, class{req: b.reqs[f][r]})
			} else {
				wild = k
				b.classes = append(b.classes, class{})
			}
		}
		counts[k]++
	}
	classes := b.classes[classMark:]
	if len(classes) == 1 && wild == 0 {
		return b.cross(f, alive, sum)
	}
	// Second pass: one array holds every member list.
	members := b.takeInts(len(alive))
	for k, n := range counts {
		classes[k].members, members = members[:0:n], members[n:]
	}
	for pos, ci := range alive {
		k := wild
		if r := b.cls[int(ci)*nf+f]; r >= 0 {
			k = slot[r]
		}
		c := &classes[k]
		c.members = append(c.members, int32(pos))
		c.sum = c.sum.plus(b.conjHash[ci])
	}
	// Each class's distinct predicates on f, and slot back to -1.
	seen := b.predSeen[f]
	live := b.takeInts(len(classes))
	for k := range classes {
		c := &classes[k]
		if !c.req.IsEmpty() {
			slot[b.cls[int(alive[c.members[0]])*nf+f]] = -1
		}
		b.predEpoch++
		uses := 0
		for _, pos := range c.members {
			uses += len(b.conjs[alive[pos]].refs)
		}
		if uses > len(seen) {
			uses = len(seen)
		}
		c.preds = b.takeInts(uses)[:0]
		for _, pos := range c.members {
			for _, r := range b.conjs[alive[pos]].refs {
				if int(r.f) == f && seen[r.idx] != b.predEpoch {
					seen[r.idx] = b.predEpoch
					c.preds = append(c.preds, r.idx)
				}
			}
		}
		live[k] = int32(k)
	}
	return b.chain(&fieldVisit{f: f, alive: alive, classes: classes}, b.full[f], live, 0)
}

// chain is the per-predicate Shannon expansion within field f: ctx is the
// set of values of f that can still reach this point, live the classes not
// yet killed by an ancestor's context, and from the first predicate index
// an ancestor has not already decided (a context only shrinks down the
// chain, so what it decided stays decided).
func (b *builder) chain(v *fieldVisit, ctx interval.Set, live []int32, from int) *Node {
	f, classes := v.f, v.classes
	mark := len(b.ints)
	defer func() { b.ints = b.ints[:mark] }()

	// Classes whose requirement is already disjoint from the context can
	// never match below this point; dropping them here keeps their
	// remaining predicates from being materialized.
	kept, copied := live, false
	var sum hash128
	n := 0
	for i, k := range live {
		c := &classes[k]
		if !c.req.IsEmpty() && !ctx.Overlaps(c.req) {
			if !copied {
				kept, copied = append(b.takeInts(len(live))[:0], live[:i]...), true
			}
			continue
		}
		if copied {
			kept = append(kept, k)
		}
		sum = sum.plus(c.sum)
		n += len(c.members)
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
	next := -1
	for pi := from; pi < len(seen); pi++ {
		if seen[pi] != b.predEpoch {
			continue
		}
		if p := b.preds[f][pi].set; ctx.Overlaps(p) && !ctx.SubsetOf(p) {
			next = pi
			break
		} // else implied false / true: reduction (iii)
	}

	if next < 0 {
		// Field f is resolved for every kept class. By construction ctx is a
		// cell of the partition their predicates induce, so it is inside or
		// disjoint from each requirement: keep the classes it satisfies and
		// move on, listing their conjunctions only if the memo has not seen
		// this set before.
		sum, n = hash128{}, 0
		for _, k := range kept {
			if c := &classes[k]; c.req.IsEmpty() || ctx.SubsetOf(c.req) {
				sum = sum.plus(c.sum)
				n += len(c.members)
			}
		}
		key := memoKey{kind: 'X', field: int32(f), alive: sum, aliveLen: int32(n)}
		if nd, ok := b.shared.memo[key]; ok {
			return nd
		}
		// Listed through a bitmap of positions, the survivors come out in
		// the order they went in: alive lists stay ascending, and so, for
		// rules compiled in order, do the payloads terminal has to sort.
		words := (len(v.alive) + 63) / 64
		if words > len(b.bits) {
			b.bits = make([]uint64, words)
		}
		set := b.bits[:words]
		clear(set)
		for _, k := range kept {
			if c := &classes[k]; c.req.IsEmpty() || ctx.SubsetOf(c.req) {
				for _, pos := range c.members {
					set[pos>>6] |= 1 << (pos & 63)
				}
			}
		}
		survivors := b.takeInts(n)[:0]
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				survivors = append(survivors, v.alive[w<<6+bits.TrailingZeros64(word)])
			}
		}
		nd := b.visit(f+1, survivors, sum)
		b.shared.memo[key] = nd
		return nd
	}

	p := &b.preds[f][next]
	key := memoKey{
		kind: 'B', field: int32(f), pred: p.hash,
		ctx: hashSet(ctx), alive: sum, aliveLen: int32(n),
	}
	if nd, ok := b.shared.memo[key]; ok {
		return nd
	}
	t := b.chain(v, ctx.Intersect(p.set), kept, next+1)
	e := b.chain(v, ctx.Minus(p.set, b.fields[f].Max), kept, next+1)
	nd := t // reduction (ii): a test whose branches coincide is elided
	if t != e {
		nd = b.consNode(f, p, t, e)
	}
	b.shared.memo[key] = nd
	return nd
}

// cross leaves field f with every alive conjunction surviving it.
func (b *builder) cross(f int, alive []int32, sum hash128) *Node {
	key := memoKey{kind: 'X', field: int32(f), alive: sum, aliveLen: int32(len(alive))}
	if nd, ok := b.shared.memo[key]; ok {
		return nd
	}
	nd := b.visit(f+1, alive, sum)
	b.shared.memo[key] = nd
	return nd
}

// terminal hash-conses the terminal node for the given satisfied
// conjunctions.
func (b *builder) terminal(alive []int32) *Node {
	payloads := make([]int, 0, len(alive))
	sorted := true
	for _, ci := range alive {
		p := b.conjs[ci].payload
		sorted = sorted && (len(payloads) == 0 || payloads[len(payloads)-1] <= p)
		payloads = append(payloads, p)
	}
	if !sorted {
		sort.Ints(payloads)
	}
	// Dedupe in place (sorted).
	uniq := payloads[:0]
	for i, p := range payloads {
		if i == 0 || p != payloads[i-1] {
			uniq = append(uniq, p)
		}
	}
	payloads = uniq
	key := hashInts(payloads)
	if n, ok := b.shared.termCons[key]; ok {
		return n
	}
	n := &Node{ID: b.shared.nnodes, Field: -1, Payloads: payloads}
	b.shared.nnodes++
	b.shared.termCons[key] = n
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

// Eval walks the BDD for a packet whose field values are given in field
// order (values[i] is the value of Fields[i]) and returns the matched
// payload set. It is the reference semantics that the generated
// match-action tables must agree with.
func (b *BDD) Eval(values []uint64) []int {
	n := b.Root
	for !n.IsTerminal() {
		if n.Set.Contains(values[n.Field]) {
			n = n.True
		} else {
			n = n.False
		}
	}
	return n.Payloads
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
// dashed = false branch, mirroring Figure 3 in the paper).
func (b *BDD) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph bdd {\n  rankdir=TB;\n")
	var walk func(n *Node, seen map[int]bool)
	walk = func(n *Node, seen map[int]bool) {
		if seen[n.ID] {
			return
		}
		seen[n.ID] = true
		if n.IsTerminal() {
			fmt.Fprintf(&sb, "  n%d [shape=box,label=\"%v\"];\n", n.ID, n.Payloads)
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
