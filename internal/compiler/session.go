package compiler

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// Session is a compilation context for a churning subscription set. Between
// recompiles it keeps the resolver, and of each live rule only a key — a
// 128-bit hash of its text — and its resolved conjunctions: no text, no
// diagram and no arena. So a rule whose text is already live is never lexed,
// parsed, normalized or resolved again, and each distinct predicate is held
// once however many rules use it. The payload IDs of rules that leave are
// given to rules that come, which keeps the resolver the size of the live set
// however long the churn goes on.
//
// This is the compile-time half of the incremental story §3 of the paper
// sketches; the install half lives in internal/controlplane. A Recompile
// lowers the live conjunctions, in the order of the set, on a fresh arena:
// its Program is the one a from-scratch compile of the set makes (same
// Stats, same table entries, same Dump), and what a recompile builds is
// garbage once its program is made.
//
// A caller that holds whole rule sets hands each to Sync, as text or
// parsed; one that tracks rules itself adds and removes them by handle.
//
// A Session is not safe for concurrent use.
type Session struct {
	sp   *spec.Spec
	opts Options
	res  *resolver

	rules []liveRule       // by handle
	free  []int32          // handles not in use
	byKey map[sum128]int32 // a live rule's handle by its key
	order []int32          // the live set: handles in set order, repeats included
	epoch int32            // stamps the handles an operation meets
	last  bdd.Sizes        // what the last recompile's build made: the next one's size hint
	kept  bool             // AddRules has given out handles, which Sync keeps
}

// liveRule is what a Session keeps of a rule: the key of its text, the
// payload ID resolve gave it, and its conjunctions. A handle not in use, or
// not yet resolved, has payload -1.
type liveRule struct {
	key     sum128
	payload int32
	epoch   int32
	conjs   []bdd.Conj
}

// NewSession creates an empty incremental compilation session against a
// spec. The options apply to every Recompile.
func NewSession(sp *spec.Spec, opts Options) *Session {
	return &Session{sp: sp, opts: opts, res: newResolver(sp), byKey: make(map[sum128]int32)}
}

// ArenaNodes reports the number of BDD nodes the last recompile built.
func (s *Session) ArenaNodes() int { return s.last.Internal + s.last.Terminals }

// handle takes a handle for a rule with the given key, not yet resolved.
func (s *Session) handle(key sum128) int32 {
	var h int32
	if n := len(s.free); n > 0 {
		h, s.free = s.free[n-1], s.free[:n-1]
	} else {
		h = int32(len(s.rules))
		s.rules = append(s.rules, liveRule{})
	}
	s.rules[h] = liveRule{key: key, payload: -1}
	return h
}

// drop gives a handle back, and the payload IDs of its rule.
func (s *Session) drop(h int32) {
	lr := &s.rules[h]
	if lr.payload >= 0 {
		s.res.release(int(lr.payload), lr.conjs)
	}
	if k, ok := s.byKey[lr.key]; ok && k == h {
		delete(s.byKey, lr.key)
	}
	*lr = liveRule{payload: -1}
	s.free = append(s.free, h)
}

// resolve runs the front end over the n chunks normalize brings to normal
// form, a rule for each of handles in order, and gives each handle its
// rule's conjunctions. When a rule fails or ctx is done, it drops every
// handle and returns the error.
func (s *Session) resolve(ctx context.Context, handles []int32, n int, normalize func(int, *lang.Arena) error) error {
	i := 0
	err := frontEnd(ctx, s.opts, n, normalize, func(rule *lang.DNFRule) error {
		conjs, id, err := s.res.resolve(rule, nil)
		lr := &s.rules[handles[i]]
		lr.payload, lr.conjs = int32(id), conjs
		i++
		return err
	})
	if err != nil {
		for _, h := range handles {
			s.drop(h)
		}
	}
	return err
}

// AddRules normalizes, resolves, and caches the given rules, returning
// one handle per rule for later removal. The rules join the live set, all
// or — when one fails — none, but are not compiled until Recompile.
func (s *Session) AddRules(rules []lang.Rule) ([]int, error) {
	handles := make([]int32, len(rules))
	for i := range rules {
		handles[i] = s.handle(ruleKey(rules[i].String()))
	}
	n, normalize := Source{Rules: rules}.chunks()
	if err := s.resolve(context.Background(), handles, n, normalize); err != nil {
		return nil, err
	}
	out := make([]int, len(handles))
	for i, h := range handles {
		if _, ok := s.byKey[s.rules[h].key]; !ok {
			s.byKey[s.rules[h].key] = h
		}
		out[i] = int(h)
	}
	s.order = append(s.order, handles...)
	s.kept = true
	return out, nil
}

// syncing is a sync under way: the live set it makes, and the handles it
// took for the rules new to the session, in set order.
type syncing struct {
	s     *Session
	order []int32
	fresh []int32
}

// syncing begins a sync to a set of at most n rules. Into an empty session
// every rule is new, and its tables are sized for them at once.
func (s *Session) syncing(n int) *syncing {
	y := &syncing{s: s, order: make([]int32, 0, n)}
	if len(s.order) == 0 {
		y.fresh = make([]int32, 0, n)
		s.rules, s.res.actions = slices.Grow(s.rules, n), slices.Grow(s.res.actions, n)
		s.byKey = make(map[sum128]int32, n)
	}
	return y
}

// next puts the rule with the given key next in the set, and reports whether
// it is new: neither live nor met earlier in the set.
func (y *syncing) next(key sum128) bool {
	s := y.s
	h, ok := s.byKey[key]
	if !ok {
		h = s.handle(key)
		s.byKey[key] = h
		y.fresh = append(y.fresh, h)
	}
	y.order = append(y.order, h)
	return !ok
}

// commit resolves the new rules, which the n chunks normalize brings to
// normal form hold in set order, and makes the set live. When a rule fails
// or ctx is done the live set is as it was.
func (y *syncing) commit(ctx context.Context, n int, normalize func(int, *lang.Arena) error) error {
	s := y.s
	if err := s.resolve(ctx, y.fresh, n, normalize); err != nil {
		return err
	}
	s.epoch++
	for _, h := range y.order {
		s.rules[h].epoch = s.epoch
	}
	for _, h := range s.order {
		if lr := &s.rules[h]; lr.payload >= 0 && lr.epoch != s.epoch {
			s.drop(h)
		}
	}
	s.order = y.order
	return nil
}

// Sync makes the rules of src the live set, in their order, repeats
// included. Rules are told apart by their text — a line's bytes, or a parsed
// rule's lang.Rule.String — and only a rule whose text is not live is
// parsed, normalized and resolved: in chunks, in parallel, text with the
// whole source's rule IDs, lines and columns. A set Compile or CompileSource
// would refuse fails with its error, and a sync that fails or that gives up,
// between chunks, once ctx is done leaves the live set as it was.
//
// The session's tables are as large as the largest set it has held. A set
// of under a quarter of that is synced into a new session instead, every
// rule new to it, which then takes this one's place: what a session retains
// follows its live set down as well as up. That renumbers the handles, so a
// session AddRules has given handles to is never replaced.
func (s *Session) Sync(ctx context.Context, src Source) error {
	n := len(src.Rules)
	if src.Rules == nil {
		n = strings.Count(src.Text, "\n") + 1
	}
	if s.kept || len(s.rules) <= 4*n {
		return s.sync(ctx, src, n)
	}
	t := NewSession(s.sp, s.opts)
	if err := t.sync(ctx, src, n); err != nil {
		return err
	}
	*s = *t
	return nil
}

// sync is Sync of a set of at most n rules.
func (s *Session) sync(ctx context.Context, src Source, n int) error {
	if src.Rules != nil {
		y := s.syncing(n)
		var fresh []lang.Rule
		for _, r := range src.Rules {
			if y.next(ruleKey(r.String())) {
				fresh = append(fresh, r)
			}
		}
		n, normalize := Source{Rules: fresh}.chunks()
		return y.commit(ctx, n, normalize)
	}
	y := s.syncing(n)
	c := textChunks{src: src.Text}
	lang.Lines(src.Text, func(l lang.Line) {
		text := src.Text[l.Start:l.End]
		if text[len(text)-1] == '\n' {
			text = text[:len(text)-1]
		}
		if y.next(ruleKey(text)) {
			c.add(l)
		}
	})
	return y.commit(ctx, len(c.chunks), c.normalize)
}

// RemoveRules drops rules by handle, every place each holds in the live
// set.
func (s *Session) RemoveRules(handles ...int) error {
	s.epoch++
	for _, h := range handles {
		if h < 0 || h >= len(s.rules) || s.rules[h].payload < 0 {
			return fmt.Errorf("session: rule handle %d is not live", h)
		}
		if s.rules[h].epoch == s.epoch {
			return fmt.Errorf("session: rule handle %d removed twice", h)
		}
		s.rules[h].epoch = s.epoch
	}
	kept := s.order[:0]
	for _, h := range s.order {
		if s.rules[h].epoch != s.epoch {
			kept = append(kept, h)
		}
	}
	s.order = kept
	for _, h := range handles {
		s.drop(int32(h))
	}
	return nil
}

// Recompile compiles the live rule set. The result is a fully independent
// Program: earlier returned programs remain valid (the control plane
// diffs old against new).
//
// When Options.Telemetry is set, each Recompile observes its duration in
// camus_compiler_recompile_seconds and refreshes the
// camus_compiler_{rules,bdd_nodes,table_entries} gauges, so a dashboard
// over /metrics shows churn cost the way Fig. 5c plots it.
func (s *Session) Recompile() (*Program, error) {
	p, err := s.RecompilePass()
	if err != nil {
		return nil, err
	}
	return p.prog, nil
}

// RecompilePass is Recompile, returning the pass the program was lowered
// on, for a caller that reads the diagram too.
func (s *Session) RecompilePass() (*Pass, error) {
	start := time.Now()
	total := 0
	for _, h := range s.order {
		total += len(s.rules[h].conjs)
	}
	conjs := make([]bdd.Conj, 0, total)
	for _, h := range s.order {
		conjs = append(conjs, s.rules[h].conjs...)
	}
	fields, conjs := s.liveFields(conjs)
	p := &Pass{sp: s.sp, opts: s.opts, res: s.res, fields: fields, conjs: conjs, rules: len(s.order), hint: s.last}
	if err := p.lower(); err != nil {
		return nil, err
	}
	s.last = p.diagram.Sizes
	if tel := s.opts.Telemetry; tel != nil {
		tel.Counter("camus_compiler_recompiles_total").Inc()
		tel.Histogram("camus_compiler_recompile_seconds").Observe(time.Since(start))
		tel.Gauge("camus_compiler_rules").Set(int64(len(s.order)))
		tel.Gauge("camus_compiler_bdd_nodes").Set(int64(p.prog.Stats.BDDNodes))
		tel.Gauge("camus_compiler_table_entries").Set(int64(p.prog.Stats.TableEntries))
	}
	return p, nil
}

// liveFields is the field table a cold compile of the live rules would lower
// on — the spec's query fields, then each state field a live rule reads, in
// the order first read — and conjs, the live conjunctions, renumbered onto
// it. The resolver's table only grows, so churn can leave fields in it that
// no live rule reads, or in another order.
func (s *Session) liveFields(conjs []bdd.Conj) ([]FieldInfo, []bdd.Conj) {
	all, n := s.res.fields, len(s.sp.Queries)      // the query fields come first
	fields, to := all[:n:n], make([]int, len(all)) // to: a state field's new index + 1, 0 unread
	for _, c := range conjs {
		for _, con := range c.Constraints {
			if f := con.Field; f >= n && to[f] == 0 {
				fields = append(fields, all[f])
				to[f] = len(fields)
			}
		}
	}
	if len(fields) == len(all) && slices.IsSorted(to) {
		return all, conjs
	}
	out := make([]bdd.Conj, len(conjs))
	for i, c := range conjs {
		out[i] = bdd.Conj{Payload: c.Payload, Constraints: slices.Clone(c.Constraints)}
		for j, con := range c.Constraints {
			if con.Field >= n {
				out[i].Constraints[j].Field = to[con.Field] - 1
			}
		}
	}
	return fields, out
}
