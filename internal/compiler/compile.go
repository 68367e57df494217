package compiler

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"camus/internal/bdd"
	"camus/internal/conc"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/telemetry"
)

// Options tune the dynamic compilation step.
type Options struct {
	// DisableExactLowering keeps range tables even when every entry is a
	// point (used by the resource-optimization ablation bench).
	DisableExactLowering bool
	// DisableCompression turns off domain compression (§3.2, third
	// optimization).
	DisableCompression bool
	// ForceRangeTables compiles every field as a range (TCAM) table,
	// ignoring exact-match annotations — the "what if we couldn't use
	// SRAM" ablation for §3.2's second resource optimization.
	ForceRangeTables bool
	// Workers bounds the worker pool used for parsing and DNF normalization
	// and for the per-field table back end. 0 means GOMAXPROCS;
	// 1 forces the fully serial path. Parallel output is bit-identical to
	// serial output (enforced by differential tests).
	Workers int
	// Telemetry, when non-nil, receives compile metrics: compile, recompile
	// and per-stage durations, and BDD node counts. It has no effect on
	// compilation output.
	Telemetry *telemetry.Registry
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// observeStage records the time one stage of a compile took.
func (o Options) observeStage(stage string, start time.Time) {
	if o.Telemetry != nil {
		o.Telemetry.Histogram("camus_compiler_stage_seconds", telemetry.L("stage", stage)).Observe(time.Since(start))
	}
}

// chunkRules is how many rules the front end parses and normalizes at a
// time: enough that a chunk's goroutine is noise beside its work, few enough
// that the chunks in flight are a small part of what the compile retains.
const chunkRules = 1024

// Source is what a compile starts from: rules already parsed, or, when
// Rules is nil, rule text.
type Source struct {
	Rules []lang.Rule
	Text  string
}

// chunks cuts the source into chunks of at most chunkRules rules and returns
// how many there are and the function, safe to call for different chunks and
// arenas at once, that brings the i-th to normal form in an arena. Text is
// cut into lines by lang.Lines, so rule IDs, positions and diagnostics are
// the whole source's.
func (s Source) chunks() (int, func(int, *lang.Arena) error) {
	if n := len(s.Rules); s.Rules != nil {
		return (n + chunkRules - 1) / chunkRules, func(i int, a *lang.Arena) error {
			for _, r := range s.Rules[i*chunkRules : min((i+1)*chunkRules, n)] {
				if err := a.Normalize(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	c := textChunks{src: s.Text}
	lang.Lines(s.Text, c.add)
	return len(c.chunks), c.normalize
}

// textChunks is rule text cut for the front end: lines of src that hold a
// rule, added in source order, in runs of consecutive rules, and the runs
// in chunks. A rule with ID i is in the chunk of the rules with IDs
// i/chunkRules*chunkRules to the next multiple less one, whatever other
// lines are added, so a front end over some of a source's lines stops where
// one over all of them would — a chunk fails on its first rule that does not
// parse, else on its first that does not normalize.
type textChunks struct {
	src    string
	chunks [][]lineRun
	last   int // the chunk number of the last line added
}

// lineRun is lines first to last of a source, consecutive rules.
type lineRun struct{ first, last lang.Line }

func (c *textChunks) add(l lang.Line) {
	if k := l.ID / chunkRules; len(c.chunks) == 0 || k != c.last {
		c.chunks, c.last = append(c.chunks, nil), k
	}
	runs := &c.chunks[len(c.chunks)-1]
	if n := len(*runs); n > 0 && (*runs)[n-1].last.ID+1 == l.ID {
		(*runs)[n-1].last = l
		return
	}
	*runs = append(*runs, lineRun{l, l})
}

// normalize parses chunk i's runs into a, straight to normal form.
func (c *textChunks) normalize(i int, a *lang.Arena) error {
	for _, r := range c.chunks[i] {
		if err := a.ParseLines(c.src, r.first, r.last); err != nil {
			return err
		}
	}
	_, err := a.Rules()
	return err
}

// frontEnd is the one pass every entry point takes from a source, cut into
// n chunks that normalize brings to normal form, to resolved rules.
// Options.Workers goroutines normalize a chunk each into an arena of their
// own, at most that many chunks ahead; resolve is called on this goroutine
// for every rule in source order, which keeps payload IDs, synthetic fields
// and the first error those of a serial pass. Once resolve has seen a
// chunk's rules its arena normalizes a later chunk, so a front end allocates
// a few arenas, not a tree and a normal form per rule; resolve copies what
// it keeps. It stops between chunks when ctx is done.
func frontEnd(ctx context.Context, opts Options, n int, normalize func(int, *lang.Arena) error, resolve func(*lang.DNFRule) error) error {
	defer opts.observeStage("frontend", time.Now())
	workers := opts.workers()
	free := make(chan *lang.Arena, workers+1) // Ordered has at most workers+1 chunks out
	return conc.Ordered(n, workers, func(i int) (*lang.Arena, error) {
		var a *lang.Arena
		select {
		case a = <-free:
			a.Reset()
		default:
			a = new(lang.Arena)
		}
		return a, normalize(i, a)
	}, func(a *lang.Arena) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		dnf, _ := a.Rules()
		for i := range dnf {
			if err := resolve(&dnf[i]); err != nil {
				return err
			}
		}
		free <- a
		return nil
	})
}

// Observer is shown every rule of a front end in source order, once the
// resolver has been through all of it, and answers whether to keep it. A
// rule it drops leaves no trace: no payload or companion ID, and none of the
// synthetic fields or interned predicates that only it made. A rule it keeps
// that the resolver rejected ends the pass with the resolver's error.
type Observer func(*Resolved) (keep bool)

// Pass is a front end run to its end: the resolver, and the conjunctions and
// number of the rules kept, in source order. Once compiled it also holds what
// the program does not keep: the diagram, and by node ID an In node's state,
// a terminal's action set (its index in Actions) or -1 for neither.
type Pass struct {
	sp     *spec.Spec
	opts   Options
	start  time.Time
	res    *resolver
	fields []FieldInfo
	conjs  []bdd.Conj
	rules  int

	prog    *Program
	diagram *bdd.BDD
	index   []int
	hint    bdd.Sizes // the build's size hint: in a Session the last recompile's, else zero
}

// Fields is the pass's field table: the spec's query fields, then the
// synthetic state fields of the rules kept.
func (p *Pass) Fields() []FieldInfo { return p.fields }

// Compile is the back end over the rules the pass kept: BDD construction,
// state assignment, Algorithm 1 and lowering. Its Program is Compile's of
// exactly those rules.
func (p *Pass) Compile() (*Program, error) {
	if err := p.lower(); err != nil {
		return nil, err
	}
	if tel := p.opts.Telemetry; tel != nil {
		tel.Counter("camus_compiler_compiles_total").Inc()
		tel.Histogram("camus_compiler_compile_seconds").Observe(time.Since(p.start))
	}
	return p.prog, nil
}

// Program is the program the last Compile made.
func (p *Pass) Program() *Program { return p.prog }

// Diagram is the reduced diagram the last Compile built.
func (p *Pass) Diagram() *bdd.BDD { return p.diagram }

// Dot renders the diagram in Graphviz dot format, every terminal labelled
// with its action set as in Figure 3 of the paper.
func (p *Pass) Dot() string {
	return p.diagram.Dot(func(n *bdd.Node) string {
		return p.prog.Actions[p.index[n.ID]].String()
	})
}

// Observe runs the front end over src into a fresh resolver, showing every
// rule to obs when it is not nil; the Pass's Compile is the back end. It
// stops between chunks when ctx is done.
func Observe(ctx context.Context, sp *spec.Spec, src Source, opts Options, obs Observer) (*Pass, error) {
	p := &Pass{sp: sp, opts: opts, start: time.Now(), res: newResolver(sp)}
	if obs != nil {
		p.res.seen = &Resolved{}
	}
	n, normalize := src.chunks()
	p.conjs, p.res.actions = make([]bdd.Conj, 0, n*chunkRules), make([][]lang.Action, 0, n*chunkRules)
	err := frontEnd(ctx, opts, n, normalize, func(rule *lang.DNFRule) error {
		m, n := p.res.mark(), len(p.conjs)
		conjs, _, err := p.res.resolve(rule, p.conjs)
		if obs != nil && !obs(p.res.seen) {
			p.res.rollback(m, rule)
			p.conjs = conjs[:n]
			return nil
		}
		p.conjs, p.rules = conjs, p.rules+1
		return err
	})
	if err != nil {
		return nil, err
	}
	p.fields = p.res.fields
	return p, nil
}

// compile is the dynamic compilation step: subscription rules are normalized
// to DNF and resolved against the spec chunk by chunk (frontEnd), folded into
// a multi-terminal BDD, and lowered to table entries via Algorithm 1.
func compile(ctx context.Context, sp *spec.Spec, src Source, opts Options) (*Program, error) {
	p, err := Observe(ctx, sp, src, opts, nil)
	if err != nil {
		return nil, err
	}
	return p.Compile()
}

// Compile compiles parsed rules.
func Compile(sp *spec.Spec, rules []lang.Rule, opts Options) (*Program, error) {
	return compile(context.Background(), sp, Source{Rules: rules}, opts)
}

// CompileSource parses the rule source text and compiles it.
func CompileSource(sp *spec.Spec, ruleSrc string, opts Options) (*Program, error) {
	return compile(context.Background(), sp, Source{Text: ruleSrc}, opts)
}

// classArena is the bdd.Classifier whose classes are action classes, one
// per build. The builder Adds a rule's payload once for each of its
// conjunctions settled on its path and Removes it once for each unsettled;
// the arena counts what those rules do, once per Add — each port, each
// state update, each drop — and keeps the order-free sum of the ports and
// updates present. A class is that sum and the drop rule: an ActionSet is
// made only of a sum the arena has not met, and a terminal is the index of
// its ActionSet among the arena's sets. Two regions that come to the same
// actions are therefore one terminal while the diagram is being built, and
// sharing and equal-branch elision reduce it by what the rules do, not by
// which rules did it. Everything downstream tells action sets apart by that index. An
// atom hashes its content — a port its number, an update its encoding, the
// drop a fixed tag, each kind in a domain of its own — not the number the
// arena gave it, so the sum of a set is the same in every arena, and the
// control plane tells action sets apart across programs by it
// (ActionSet.Sum).
//
// Like the builder's memo keys, the sum is trusted: two sets of ports and
// updates that differ collide with the odds of two random 128-bit values.
type classArena struct {
	sets  [][]ActionSet // by class, in chunks of setChunk: never copied to grow
	bySum map[sum128]int

	// The ports and updates met, numbered densely as atoms after the drop
	// at dropAtom; ops[p] bounds the atoms of payload p's rule in opAtoms
	// once a build has bound it. count, by atom, says how many held rules
	// name it, held lists the ports and updates counted (at says where),
	// ports how many of them are ports, and sum is the sum of their hashes.
	portAtom   map[int]int32
	updateAtom map[string]int32
	atoms      []atom
	ops        [][2]int32
	opAtoms    []int32
	count, at  []int32
	held       []int32
	ports      int
	sum        sum128
	scratch    []byte
	list       []uint32 // the held ports, while actionSet makes their set
}

const dropAtom = 0

// setChunk is how many ActionSets a chunk of the arena's sets holds.
const setChunk = 256

// set is the ActionSet of class c.
func (ca *classArena) set(c int) ActionSet { return ca.sets[c/setChunk][c%setChunk] }

// atom is a port, or a state update when isUpdate, and its content hash.
type atom struct {
	isUpdate bool
	port     int
	update   lang.Action
	hash     sum128
}

// sum128 is an order-free sum of atom hashes, lane by lane.
type sum128 struct{ a, b uint64 }

func (s sum128) plus(t sum128) sum128  { return sum128{s.a + t.a, s.b + t.b} }
func (s sum128) minus(t sum128) sum128 { return sum128{s.a - t.a, s.b - t.b} }

// The atom kinds' hash domains.
const (
	portDomain   = 0x9e3779b97f4a7c15
	updateDomain = 0xc2b2ae3d27d4eb4f
	dropDomain   = 0x165667b19e3779f9
	stateDomain  = 0x27d4eb2f165667c5 // a state's signature (Program.Signatures)
	ruleDomain   = 0x85ebca77c2b2ae63 // a rule's text (Session)
)

// fmix is the splitmix64 finalizer.
func fmix(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// contentHash spreads words, after a domain, over both lanes.
type contentHash sum128

func hashIn(domain uint64) contentHash { return contentHash{fmix(domain), fmix(^domain)} }

func (h contentHash) word(w uint64) contentHash {
	return contentHash{fmix(h.a ^ w), fmix(h.b + w*0xff51afd7ed558ccd)}
}

func (h contentHash) sum() sum128 { return sum128{h.a, fmix(h.b ^ h.a)} }

// portHash is a port's atom hash.
func portHash(p int) sum128 { return hashIn(portDomain).word(uint64(p)).sum() }

// text mixes in a byte string, eight bytes to a little-endian word, the
// last zero-padded, then its length.
func (h contentHash) text(s string) contentHash {
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := min(i+8, len(s)) - 1; j >= i; j-- {
			w = w<<8 | uint64(s[j])
		}
		h = h.word(w)
	}
	return h.word(uint64(len(s)))
}

// updateHash is a state update's atom hash, from its appendUpdate bytes.
func updateHash(enc []byte) sum128 { return hashIn(updateDomain).text(string(enc)).sum() }

// ruleKey is a Session's key for a rule's text.
func ruleKey(text string) sum128 { return hashIn(ruleDomain).text(text).sum() }

// dropHash is the drop atom's hash.
var dropHash = hashIn(dropDomain).sum()

// newClassArena makes an arena for a build of about the given number of
// classes.
func newClassArena(classes int) *classArena {
	ca := &classArena{bySum: make(map[sum128]int, classes), portAtom: make(map[int]int32), updateAtom: make(map[string]int32)}
	ca.newAtom(atom{hash: dropHash}) // dropAtom
	return ca
}

// Add counts in what the payload's rule does.
func (ca *classArena) Add(payload int) { ca.tally(payload, 1) }

// Remove counts it out.
func (ca *classArena) Remove(payload int) { ca.tally(payload, -1) }

// tally moves the counts of a rule's atoms by one, and a port or update into
// or out of held when its count leaves or reaches zero.
func (ca *classArena) tally(payload int, by int32) {
	op := ca.ops[payload]
	for _, x := range ca.opAtoms[op[0]:op[1]] {
		ca.count[x] += by
		if x == dropAtom {
			continue
		}
		switch {
		case by > 0 && ca.count[x] == 1:
			ca.at[x] = int32(len(ca.held))
			ca.held = append(ca.held, x)
			ca.sum = ca.sum.plus(ca.atoms[x].hash)
			if !ca.atoms[x].isUpdate {
				ca.ports++
			}
		case by < 0 && ca.count[x] == 0:
			last := ca.held[len(ca.held)-1]
			ca.held[ca.at[x]], ca.at[last] = last, ca.at[x]
			ca.held = ca.held[:len(ca.held)-1]
			ca.sum = ca.sum.minus(ca.atoms[x].hash)
			if !ca.atoms[x].isUpdate {
				ca.ports--
			}
		}
	}
}

// bind takes the rule actions of a build (payload -> actions) and lists
// what each rule of its conjunctions does as atoms: in conjunction order,
// which is the order the rules were resolved and mostly the order their
// actions lie in memory. An arena is bound once; the first pass counts the
// atoms, the second lists them.
func (ca *classArena) bind(actions [][]lang.Action, conjs []bdd.Conj) {
	ca.ops = make([][2]int32, len(actions))
	n := 0
	for _, c := range conjs {
		if op := &ca.ops[c.Payload]; op[1] == 0 {
			op[1] = -1
			for i := range actions[c.Payload] {
				n += max(len(actions[c.Payload][i].Ports), 1) // a drop or an update is one
			}
		}
	}
	ca.opAtoms = make([]int32, 0, n)
	for _, c := range conjs {
		if op := &ca.ops[c.Payload]; op[1] < 0 {
			start := int32(len(ca.opAtoms))
			ca.atomsOf(actions[c.Payload])
			*op = [2]int32{start, int32(len(ca.opAtoms))}
		}
	}
}

// atomsOf appends a rule's atoms to opAtoms.
func (ca *classArena) atomsOf(actions []lang.Action) {
	for i := range actions {
		switch a := &actions[i]; a.Kind {
		case lang.ActFwd:
			for _, p := range a.Ports {
				x, ok := ca.portAtom[p]
				if !ok {
					x = ca.newAtom(atom{port: p, hash: portHash(p)})
					ca.portAtom[p] = x
				}
				ca.opAtoms = append(ca.opAtoms, x)
			}
		case lang.ActDrop:
			ca.opAtoms = append(ca.opAtoms, dropAtom)
		case lang.ActState:
			ca.scratch = appendUpdate(ca.scratch[:0], a)
			x, ok := ca.updateAtom[string(ca.scratch)]
			if !ok {
				x = ca.newAtom(atom{isUpdate: true, update: *a, hash: updateHash(ca.scratch)})
				ca.updateAtom[string(ca.scratch)] = x
			}
			ca.opAtoms = append(ca.opAtoms, x)
		}
	}
}

func (ca *classArena) newAtom(a atom) int32 {
	ca.atoms = append(ca.atoms, a)
	ca.count, ca.at = append(ca.count, 0), append(ca.at, 0)
	return int32(len(ca.atoms) - 1)
}

// Class names what the held rules do together: port sets union (the
// paper's fwd(1) + fwd(2) ⇒ fwd(1,2)), state updates accumulate, and a
// forward beats a drop (the packet is wanted by someone), while forwarding
// nowhere and updating nothing is a drop, said or not.
func (ca *classArena) Class() (int, bool) {
	drop := ca.ports == 0 && (len(ca.held) == 0 || ca.count[dropAtom] > 0)
	sum := ca.sum
	if drop {
		sum = sum.plus(dropHash)
	}
	id, ok := ca.bySum[sum]
	if !ok {
		id = len(ca.bySum)
		ca.bySum[sum] = id
		if id%setChunk == 0 {
			ca.sets = append(ca.sets, make([]ActionSet, 0, setChunk))
		}
		chunk := &ca.sets[len(ca.sets)-1]
		*chunk = append(*chunk, ca.actionSet(drop, sum))
	}
	return id, len(ca.held) > 0
}

// actionSet is the class held as an ActionSet of its own: the ports as a
// PortSet made from the held atoms, updates in canonical order.
func (ca *classArena) actionSet(drop bool, sum sum128) ActionSet {
	as := ActionSet{Drop: drop, Group: -1, sum: sum}
	if n := len(ca.held) - ca.ports; n > 0 {
		as.Updates = make([]lang.Action, 0, n)
	}
	ca.list = ca.list[:0]
	for _, x := range ca.held {
		if a := &ca.atoms[x]; a.isUpdate {
			as.Updates = append(as.Updates, a.update)
		} else {
			ca.list = append(ca.list, uint32(a.port))
		}
	}
	as.Ports = portSetOf(ca.list)
	if len(as.Updates) > 1 {
		sortRuleActions(as.Updates)
	}
	return as
}

// lower is the compiler back end over the pass's conjunctions: BDD
// construction on a fresh arena, state assignment, Algorithm 1, and the
// per-field lowering fan-out. It leaves the program, the diagram and the
// node index on the pass.
//
// Each field's table is independent once algorithm1 has sliced the BDD
// into components, so lowering, exact-match re-typing, and domain
// compression run concurrently across Options.Workers goroutines; results
// land in a pre-sized slice, keeping the output bit-identical to serial.
func (p *Pass) lower() error {
	opts := p.opts
	start := time.Now()
	// Copy the field table so option-driven rewrites (and later Session
	// recompiles reusing the resolver) never alias a published Program.
	fields := make([]FieldInfo, len(p.fields))
	copy(fields, p.fields)
	if opts.ForceRangeTables {
		for i := range fields {
			fields[i].Match = spec.MatchRange
		}
	}
	ca := newClassArena(p.hint.Terminals)
	ca.bind(p.res.actions, p.conjs)
	b, err := bdd.BuildClasses(BDDFields(fields), p.conjs, ca, p.hint)
	if err != nil {
		return err
	}
	opts.observeStage("build", start)
	start = time.Now()

	index, leaves, states := assignStates(b)
	perField := algorithm1(b, index)
	prog := &Program{ // InitialState 0: the root's state, when it has one
		Spec:   p.sp,
		Fields: fields,
		Tables: make([]*Table, len(fields)),
	}
	prog.buildActions(ca, b, leaves)
	// The terminal that forwards nowhere and updates nothing is what a miss
	// already does; the builder merges terminals by what they do, so there
	// is at most one.
	noop := slices.IndexFunc(prog.Actions, ActionSet.doesNothing)

	errs := make([]error, len(fields))
	conc.ForEach(len(fields), opts.workers(), func(f int) {
		fi := fields[f]
		entries, err := lowerEntries(fi, f, p.conjs, perField[f], noop)
		if err != nil {
			errs[f] = err
			return
		}
		t := &Table{Name: fi.Name, Field: f, Match: fi.Match, Entries: entries}
		if !opts.DisableExactLowering && !opts.ForceRangeTables {
			autoExactLower(t)
		}
		if !opts.DisableCompression {
			maybeCompress(t, fi)
		}
		prog.Tables[f] = t
	})
	if err := conc.FirstError(errs); err != nil {
		return err
	}

	prog.buildLeaf(b, index)
	prog.signatures(b, index, states)
	prog.computeStats(p.rules, len(p.conjs), b, states)
	opts.observeStage("lower", start)
	p.prog, p.diagram, p.index = prog, b, index
	return nil
}

// BDDFields is the BDD's view of a field table: names and domains.
func BDDFields(fields []FieldInfo) []bdd.Field {
	out := make([]bdd.Field, len(fields))
	for i, f := range fields {
		out[i] = bdd.Field{Name: f.Name, Max: f.Max}
	}
	return out
}

// autoExactLower applies the paper's second resource optimization: "the
// compiler uses exact matches instead of range when possible, allowing it
// to leverage SRAM while saving TCAM". A range table whose entries are all
// points (plus per-state wildcards) is re-typed as exact.
func autoExactLower(t *Table) {
	if t.Match != spec.MatchRange {
		return
	}
	wildTargets := make(map[int]int)
	for _, e := range t.Entries {
		switch e.Kind {
		case EntryRange:
			return // genuine range: keep TCAM
		case EntryWild:
			if prev, ok := wildTargets[e.State]; ok && prev != e.Next {
				return
			}
			wildTargets[e.State] = e.Next
		}
	}
	t.Match = spec.MatchExact
}

// buildActions lists the action set of every terminal, in the order leaves
// gives them — the terminal's class — allocating multicast groups for
// multi-port forwards in the same order. Every multi-port forward is a group
// until two share their ports.
func (p *Program) buildActions(ca *classArena, b *bdd.BDD, leaves []int) {
	p.Actions = make([]ActionSet, len(leaves))
	multi := 0
	for i, term := range leaves {
		p.Actions[i] = ca.set(b.Nodes()[term].Class)
		if p.Actions[i].Ports.Len() > 1 {
			multi++
		}
	}
	var groupIdx map[[2]uint64]int // port set -> group
	if multi > 0 {
		groupIdx, p.Groups = make(map[[2]uint64]int, multi), make([]PortSet, 0, multi)
	}
	for i := range p.Actions {
		as := &p.Actions[i]
		as.Group = -1
		if as.Ports.Len() > 1 {
			h := as.Ports.Hash()
			g, ok := groupIdx[h]
			if !ok {
				g = len(p.Groups)
				groupIdx[h] = g
				p.Groups = append(p.Groups, as.Ports)
			}
			as.Group = g
		}
	}
	if len(p.Groups) < multi {
		p.Groups = append(make([]PortSet, 0, len(p.Groups)), p.Groups...)
	}
}

// buildLeaf constructs the leaf table, the stage that runs state updates. A
// row that reaches a terminal decides the packet itself, so an action set
// that only forwards costs no entry here, and one with updates one entry,
// matched on the action a row decided. A diagram that is a single terminal
// has no rows: its terminal, unless it does nothing (a miss drops), is the
// stage's default.
func (p *Program) buildLeaf(b *bdd.BDD, index []int) {
	p.Leaf = &Table{Name: "leaf", Field: -1, Match: spec.MatchExact}
	if b.Root.IsTerminal() {
		if a := index[b.Root.ID]; !p.Actions[a].doesNothing() {
			p.Leaf.Entries = []Entry{{Kind: EntryWild, Next: decision(a)}}
		}
		return
	}
	n := 0
	for _, as := range p.Actions {
		n += min(len(as.Updates), 1)
	}
	if n > 0 {
		p.Leaf.Entries = make([]Entry, 0, n)
	}
	for a, as := range p.Actions {
		if len(as.Updates) > 0 {
			p.Leaf.Entries = append(p.Leaf.Entries, Entry{Kind: EntryExact, Lo: uint64(a), Hi: uint64(a), Next: decision(a)})
		}
	}
}

// computeStats fills in the resource statistics.
func (p *Program) computeStats(nRules, nConjs int, b *bdd.BDD, states int) {
	s := Stats{
		Rules:        nRules,
		Conjunctions: nConjs,
		BDDNodes:     b.NumNodes(),
		BDDTerminals: len(b.Terminals()),
		States:       states,
		LeafEntries:  len(p.Leaf.Entries),
	}
	s.TableEntries = len(p.Leaf.Entries)
	s.SRAMEntries += len(p.Leaf.Entries) // the leaf matches the decided action exactly
	for _, t := range p.Tables {
		s.TableEntries += len(t.Entries)
		if t.Codec != nil {
			s.CodecEntries += t.Codec.NumIntervals()
			s.TableEntries += t.Codec.NumIntervals()
		}
		sram, tcam := t.Slots(p.Fields[t.Field].Bits)
		s.SRAMEntries += sram
		s.TCAMEntries += tcam
	}
	s.MulticastGroups = len(p.Groups)
	p.Stats = s
}

// FieldIndex returns the pipeline index of a (qualified or short) field
// name, resolving through the spec.
func (p *Program) FieldIndex(name string) (int, error) {
	for i, f := range p.Fields {
		if f.Name == name {
			return i, nil
		}
	}
	q, err := p.Spec.LookupField(name)
	if err != nil {
		return 0, err
	}
	for i, f := range p.Fields {
		if f.Name == q.Name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("field %q not part of the compiled program", name)
}
