package compiler

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"time"

	"camus/internal/bdd"
	"camus/internal/conc"
	"camus/internal/interval"
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
	// CompressionMaxCodes bounds the compressed domain size; 0 means the
	// default of 256 (an 8-bit code, as in the paper).
	CompressionMaxCodes int
	// CompressionMinEntries is the table size below which compression is
	// not worth a pipeline stage; 0 means the default of 16.
	CompressionMinEntries int
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
	// and per-stage durations, BDD node counts, and the Session memo hit
	// rate. It has no effect on compilation output.
	Telemetry *telemetry.Registry
}

func (o Options) maxCodes() int {
	if o.CompressionMaxCodes > 0 {
		return o.CompressionMaxCodes
	}
	return 256
}

func (o Options) minEntries() int {
	if o.CompressionMinEntries > 0 {
		return o.CompressionMinEntries
	}
	return 16
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

// source is what a compile starts from: rules already parsed, or rule text.
type source struct {
	rules []lang.Rule
	text  string
}

// chunks cuts the source into runs of at most chunkRules rules and returns
// how many there are and the function, safe to call for different chunks at
// once, that brings the i-th to normal form. Text is cut by lang.Chunks, so
// rule IDs, positions and diagnostics are the whole source's.
func (s source) chunks() (int, func(int) ([]lang.DNFRule, error)) {
	if n := len(s.rules); s.rules != nil {
		return (n + chunkRules - 1) / chunkRules, func(i int) ([]lang.DNFRule, error) {
			return lang.NormalizeAll(s.rules[i*chunkRules : min((i+1)*chunkRules, n)])
		}
	}
	parsers := lang.Chunks(s.text, chunkRules)
	return len(parsers), func(i int) ([]lang.DNFRule, error) {
		rules, err := parsers[i].Rules()
		if err != nil {
			return nil, err
		}
		return lang.NormalizeAll(rules)
	}
}

// frontEnd is the one pass every entry point takes from a source to resolved
// rules. Options.Workers goroutines parse and normalize a chunk each, at most
// that many chunks ahead; resolve is called on this goroutine for every rule
// in source order, which keeps payload IDs, synthetic fields and the first
// error those of a serial pass. A chunk's AST and DNF are garbage once
// resolve has seen its rules. It stops between chunks when ctx is done.
func frontEnd(ctx context.Context, src source, opts Options, resolve func(*lang.DNFRule) error) error {
	defer opts.observeStage("frontend", time.Now())
	n, normalize := src.chunks()
	return conc.Ordered(n, opts.workers(), normalize, func(dnf []lang.DNFRule) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := range dnf {
			if err := resolve(&dnf[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// resolveSource runs the front end into a fresh resolver: the conjunctions
// of the whole source, in source order, and the number of rules.
func resolveSource(ctx context.Context, sp *spec.Spec, src source, opts Options) (*resolver, []bdd.Conj, int, error) {
	res, n := newResolver(sp), 0
	var conjs []bdd.Conj
	err := frontEnd(ctx, src, opts, func(rule *lang.DNFRule) (err error) {
		n++
		conjs, _, err = res.resolve(rule, conjs)
		return err
	})
	return res, conjs, n, err
}

// compile is the dynamic compilation step: subscription rules are normalized
// to DNF and resolved against the spec chunk by chunk (frontEnd), folded into
// a multi-terminal BDD, and lowered to table entries via Algorithm 1.
func compile(ctx context.Context, sp *spec.Spec, src source, opts Options) (*Program, error) {
	start := time.Now()
	res, conjs, n, err := resolveSource(ctx, sp, src, opts)
	if err != nil {
		return nil, err
	}
	prog, err := compileFromConjs(sp, res.fields, res.actions, conjs, n, opts, newClassArena())
	if err != nil {
		return nil, err
	}
	if tel := opts.Telemetry; tel != nil {
		tel.Counter("camus_compiler_compiles_total").Inc()
		tel.Histogram("camus_compiler_compile_seconds").Observe(time.Since(start))
	}
	return prog, nil
}

// Compile compiles parsed rules.
func Compile(sp *spec.Spec, rules []lang.Rule, opts Options) (*Program, error) {
	return compile(context.Background(), sp, source{rules: rules}, opts)
}

// CompileSource parses the rule source text and compiles it.
func CompileSource(sp *spec.Spec, ruleSrc string, opts Options) (*Program, error) {
	return CompileSourceContext(context.Background(), sp, ruleSrc, opts)
}

// CompileSourceContext is CompileSource that gives up, with ctx's error,
// between chunks of the front end once ctx is done.
func CompileSourceContext(ctx context.Context, sp *spec.Spec, ruleSrc string, opts Options) (*Program, error) {
	return compile(ctx, sp, source{text: ruleSrc}, opts)
}

// classArena is a BDD arena whose terminals are action classes, and the
// bdd.Classifier that names them. The builder Adds and Removes the payloads
// of the rules settled on its path; the arena counts what those rules do —
// each port, each state update, each drop — and keeps the order-free sum of
// the ports and updates present. A class is that sum and the drop rule: an
// ActionSet is made only of a sum the arena has not met, and a terminal is
// the index of its ActionSet in sets. Two regions that come to the same
// actions are therefore one terminal while the diagram is being built, and
// sharing and equal-branch elision reduce it by what the rules do, not by
// which rules did it. Everything downstream tells action sets apart by that
// index, and the control plane, across programs, by the Key made with it.
//
// Like the builder's memo keys, the sum is trusted: two sets of ports and
// updates that differ collide with the odds of two random 128-bit values.
//
// A Session keeps one for its life — payload IDs map to the same actions
// for as long (the resolver is append-only) — so a terminal whose class
// survived the churn is found by its sum and nothing is merged again.
type classArena struct {
	builder *bdd.Builder
	sets    []ActionSet
	bySum   map[sum128]int

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
	seen       []uint64 // sortPorts' bitmap, all zero between uses
}

const dropAtom = 0

// atom is a port, or a state update when isUpdate.
type atom struct {
	isUpdate bool
	port     int
	update   lang.Action
}

// sum128 is an order-free sum of atom hashes, lane by lane.
type sum128 struct{ a, b uint64 }

func (s sum128) plus(t sum128) sum128  { return sum128{s.a + t.a, s.b + t.b} }
func (s sum128) minus(t sum128) sum128 { return sum128{s.a - t.a, s.b - t.b} }

// atomHash spreads an atom number over both lanes (the splitmix64
// finalizer).
func atomHash(x int32) sum128 {
	fmix := func(x uint64) uint64 {
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		return x ^ x>>31
	}
	a := fmix(uint64(x) + 0x9e3779b97f4a7c15)
	return sum128{a, fmix(a ^ 0x2545f4914f6cdd1d)}
}

func newClassArena() *classArena {
	ca := &classArena{bySum: make(map[sum128]int), portAtom: make(map[int]int32), updateAtom: make(map[string]int32)}
	ca.newAtom(atom{}) // dropAtom
	ca.builder = bdd.NewClassBuilder(ca)
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
			ca.sum = ca.sum.plus(atomHash(x))
			if !ca.atoms[x].isUpdate {
				ca.ports++
			}
		case by < 0 && ca.count[x] == 0:
			last := ca.held[len(ca.held)-1]
			ca.held[ca.at[x]], ca.at[last] = last, ca.at[x]
			ca.held = ca.held[:len(ca.held)-1]
			ca.sum = ca.sum.minus(atomHash(x))
			if !ca.atoms[x].isUpdate {
				ca.ports--
			}
		}
	}
}

// bind takes the rule actions of a build (payload -> actions) and lists
// what each rule of its conjunctions that the arena has not met does as
// atoms: in conjunction order, which is the order the rules were resolved
// and mostly the order their actions lie in memory. A payload whose rule
// does nothing is listed again, to no effect.
func (ca *classArena) bind(actions [][]lang.Action, conjs []bdd.Conj) {
	if n := len(actions) - len(ca.ops); n > 0 {
		ca.ops = append(ca.ops, make([][2]int32, n)...)
	}
	for _, c := range conjs {
		if op := &ca.ops[c.Payload]; op[1] == 0 {
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
					x = ca.newAtom(atom{port: p})
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
				x = ca.newAtom(atom{isUpdate: true, update: *a})
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
	key := ca.sum
	if drop {
		key = key.plus(atomHash(dropAtom))
	}
	id, ok := ca.bySum[key]
	if !ok {
		id = len(ca.sets)
		ca.bySum[key] = id
		ca.sets = append(ca.sets, ca.actionSet(drop))
	}
	return id, len(ca.held) > 0
}

// actionSet is the class held as an ActionSet of its own: ports ascending,
// updates in canonical order.
func (ca *classArena) actionSet(drop bool) ActionSet {
	as := ActionSet{Drop: drop, Group: -1}
	if ca.ports > 0 {
		as.Ports = make([]int, 0, ca.ports)
	}
	if n := len(ca.held) - ca.ports; n > 0 {
		as.Updates = make([]lang.Action, 0, n)
	}
	for _, x := range ca.held {
		if a := &ca.atoms[x]; a.isUpdate {
			as.Updates = append(as.Updates, a.update)
		} else {
			as.Ports = append(as.Ports, a.port)
		}
	}
	sortPorts(as.Ports, &ca.seen)
	if len(as.Updates) > 1 {
		sortRuleActions(as.Updates)
	}
	ca.scratch = as.appendKey(ca.scratch[:0])
	as.key = string(ca.scratch)
	return as
}

// compileFromConjs is the compiler back end shared by one-shot compiles
// (a fresh arena) and incremental Session recompiles (the session's): BDD
// construction, state assignment, Algorithm 1, and the per-field lowering
// fan-out.
//
// Each field's table is independent once algorithm1 has sliced the BDD
// into components, so lowering, exact-match re-typing, and domain
// compression run concurrently across Options.Workers goroutines; results
// land in a pre-sized slice, keeping the output bit-identical to serial.
func compileFromConjs(sp *spec.Spec, fieldInfos []FieldInfo, actions [][]lang.Action,
	conjs []bdd.Conj, nRules int, opts Options, ca *classArena) (*Program, error) {

	start := time.Now()
	// Copy the field table so option-driven rewrites (and later Session
	// recompiles reusing the resolver) never alias a published Program.
	fields := append([]FieldInfo(nil), fieldInfos...)
	if opts.ForceRangeTables {
		for i := range fields {
			fields[i].Match = spec.MatchRange
		}
	}
	bddFields := make([]bdd.Field, len(fields))
	for i, f := range fields {
		bddFields[i] = bdd.Field{Name: f.Name, Max: f.Max}
	}
	ca.bind(actions, conjs)
	b, err := ca.builder.Build(bddFields, conjs)
	if err != nil {
		return nil, err
	}
	opts.observeStage("build", start)
	start = time.Now()

	states, leaves := assignStates(b)
	perField := algorithm1(b, states)

	prog := &Program{
		Spec:    sp,
		Fields:  fields,
		BDD:     b,
		Tables:  make([]*Table, len(fields)),
		conjs:   conjs,
		stateOf: states,
	}
	prog.InitialState = states[b.Root.ID]

	errs := make([]error, len(fields))
	conc.ForEach(len(fields), opts.workers(), func(f int) {
		fi := fields[f]
		entries, err := lowerEntries(fi, perField[f])
		if err != nil {
			errs[f] = err
			return
		}
		t := &Table{Name: fi.Name, Field: f, Match: fi.Match, Entries: entries}
		if !opts.DisableExactLowering && !opts.ForceRangeTables {
			autoExactLower(t)
		}
		if !opts.DisableCompression {
			maybeCompress(t, fi, opts)
		}
		prog.Tables[f] = t
	})
	if err := conc.FirstError(errs); err != nil {
		return nil, err
	}

	prog.buildLeaf(ca.sets, leaves)
	prog.computeStats(nRules)
	opts.observeStage("lower", start)
	return prog, nil
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

// buildLeaf constructs the leaf table: one entry per terminal, in state
// order, pointing at the action set that is the terminal's class and
// allocating multicast groups for multi-port forwards. leaves lists the
// terminals, states ascending.
func (p *Program) buildLeaf(sets []ActionSet, leaves []int) {
	p.Leaf = &Table{Name: "leaf", Field: -1, Match: spec.MatchExact}
	groupIdx := make(map[string]int) // encoded port set -> group
	var scratch []byte
	p.Actions = make([]ActionSet, 0, len(leaves))
	p.Leaf.Entries = make([]Entry, 0, len(leaves))
	for _, term := range leaves {
		as := sets[p.BDD.Nodes()[term].Class]
		if len(as.Ports) > 1 {
			scratch = appendPorts(scratch[:0], as.Ports)
			g, ok := groupIdx[string(scratch)]
			if !ok {
				g = len(p.Groups)
				groupIdx[string(scratch)] = g
				p.Groups = append(p.Groups, as.Ports)
			}
			as.Group = g
		} else {
			as.Group = -1
		}
		p.Leaf.Entries = append(p.Leaf.Entries, Entry{
			State: p.stateOf[term], Kind: EntryWild, Next: len(p.Actions), Priority: 0,
		})
		p.Actions = append(p.Actions, as)
	}
}

// sortPorts orders distinct ports. Ports are host numbers, so a set is
// usually dense in its span and a bitmap over the span orders it in one
// pass; a set too sparse for that — fewer ports than the span has words — is
// sorted by comparison instead, and a port a million up costs no megabyte.
func sortPorts(ports []int, seen *[]uint64) {
	if len(ports) < 2 {
		return
	}
	lo, hi := slices.Min(ports), slices.Max(ports)
	words := uint(hi-lo)/64 + 1
	if words > uint(len(ports)) {
		slices.Sort(ports)
		return
	}
	if uint(len(*seen)) < words {
		*seen = make([]uint64, words)
	}
	bitmap := (*seen)[:words]
	for _, p := range ports {
		d := uint(p - lo)
		bitmap[d>>6] |= 1 << (d & 63)
	}
	i := 0
	for w, word := range bitmap {
		for ; word != 0; word &= word - 1 {
			ports[i] = lo + w<<6 + bits.TrailingZeros64(word)
			i++
		}
		bitmap[w] = 0
	}
}

// computeStats fills in the resource statistics.
func (p *Program) computeStats(nRules int) {
	s := Stats{
		Rules:        nRules,
		Conjunctions: len(p.conjs),
		BDDNodes:     p.BDD.NumNodes(),
		BDDTerminals: len(p.BDD.Terminals()),
		LeafEntries:  len(p.Leaf.Entries),
	}
	for _, st := range p.stateOf {
		if st >= 0 {
			s.States++
		}
	}
	s.TableEntries = len(p.Leaf.Entries)
	s.SRAMEntries += len(p.Leaf.Entries) // leaf is an exact state match
	for _, t := range p.Tables {
		s.TableEntries += len(t.Entries)
		if t.Codec != nil {
			s.CodecEntries += t.Codec.NumIntervals()
			s.TableEntries += t.Codec.NumIntervals()
			s.TCAMEntries += t.Codec.TCAMCost(p.Fields[t.Field].Bits)
		}
		bits := p.Fields[t.Field].Bits
		for _, e := range t.Entries {
			switch e.Kind {
			case EntryExact:
				if t.Match == spec.MatchExact || t.Codec != nil {
					s.SRAMEntries++
				} else {
					s.TCAMEntries++
				}
			case EntryRange:
				s.TCAMEntries += interval.PrefixCount(e.Lo, e.Hi, bits)
			case EntryWild:
				s.TCAMEntries++
			}
		}
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
