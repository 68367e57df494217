package compiler

import (
	"context"
	"fmt"
	"time"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// Session is an incremental compilation context for a churning
// subscription set. It keeps three things alive across recompiles:
//
//   - the resolver, so each rule is normalized and resolved exactly once
//     (added rules get persistent payload IDs that never shift when other
//     rules are removed — the property that makes BDD memoization hit) and
//     each distinct predicate is held once however many rules use it;
//   - the per-rule resolved conjunctions, cached at AddRules time;
//   - a classArena, so Recompile rebuilds only the sub-BDDs whose alive
//     conjunction sets actually changed, and merges and sorts action lists
//     only for subscriber populations it has not met before.
//
// This is the compile-time half of the incremental story §3 of the paper
// sketches ("BDD memoization at compile time and table-entry re-use at
// install time"); the install half lives in internal/controlplane. A
// Recompile after a small churn event therefore touches work proportional
// to the churned rules plus the shared spine of the BDD, not the full
// rule set, while producing a Program identical (same Stats, same table
// entries, same Evaluate behavior) to a from-scratch compile of the
// current rule set.
//
// A Session is not safe for concurrent use.
type Session struct {
	sp   *spec.Spec
	opts Options

	res   *resolver
	arena *classArena

	order []int              // live rule handles, insertion order
	live  map[int][]bdd.Conj // by handle: the rule's resolved conjunctions

	// What the arena retained after its first (cold) build, and for how
	// many conjunctions: the measure of what the live set needs.
	coldRetained, coldConjs int
}

// arenaSlack is the tolerated ratio of what the arena retains (nodes and
// memo-table entries) to what a cold build of the live set would, before
// Recompile discards the arena. Churn strands the sub-BDDs and payload sets
// of removed rules in the memo tables; resetting once they dominate keeps
// memory proportional to the live set at the cost of one cold build. The
// live set's need is the arena's own cold build, scaled by how the number of
// conjunctions has moved since.
const arenaSlack = 8

// NewSession creates an empty incremental compilation session against a
// spec. The options apply to every Recompile.
func NewSession(sp *spec.Spec, opts Options) *Session {
	return &Session{
		sp:    sp,
		opts:  opts,
		res:   newResolver(sp),
		arena: newClassArena(),
		live:  make(map[int][]bdd.Conj),
	}
}

// Len returns the number of live rules.
func (s *Session) Len() int { return len(s.order) }

// ArenaNodes reports the number of BDD nodes retained in the memo arena
// (telemetry: warm recompiles reuse these instead of rebuilding).
func (s *Session) ArenaNodes() int { return s.arena.builder.ArenaSize() }

// AddRules normalizes, resolves, and caches the given rules, returning
// one handle per rule for later removal. The rules join the live set, all
// or — when one fails — none, but are not compiled until Recompile.
func (s *Session) AddRules(rules []lang.Rule) ([]int, error) {
	return s.add(source{rules: rules})
}

// AddSource parses rule source text and adds the rules.
func (s *Session) AddSource(src string) ([]int, error) {
	return s.add(source{text: src})
}

func (s *Session) add(src source) ([]int, error) {
	var handles []int
	err := frontEnd(context.Background(), src, s.opts, func(rule *lang.DNFRule) error {
		conjs, h, err := s.res.resolve(rule, nil)
		if err == nil {
			handles, s.live[h] = append(handles, h), conjs
		}
		return err
	})
	if err != nil {
		for _, h := range handles {
			delete(s.live, h)
		}
		return nil, err
	}
	s.order = append(s.order, handles...)
	return handles, nil
}

// RemoveRules drops rules by handle. The payload IDs of the remaining
// rules are untouched, so their cached conjunctions — and the memoized
// sub-BDDs built from them — stay valid.
func (s *Session) RemoveRules(handles ...int) error {
	drop := make(map[int]bool, len(handles))
	for _, h := range handles {
		if _, ok := s.live[h]; !ok {
			return fmt.Errorf("session: rule handle %d is not live", h)
		}
		if drop[h] {
			return fmt.Errorf("session: rule handle %d removed twice", h)
		}
		drop[h] = true
	}
	for _, h := range handles {
		delete(s.live, h)
	}
	kept := s.order[:0]
	for _, h := range s.order {
		if !drop[h] {
			kept = append(kept, h)
		}
	}
	s.order = kept
	return nil
}

// Recompile compiles the current live rule set, reusing memoized
// sub-BDDs from previous recompiles. The result is a fully independent
// Program: earlier returned programs remain valid (the control plane
// diffs old against new).
//
// When Options.Telemetry is set, each Recompile observes its duration in
// camus_compiler_recompile_seconds and refreshes the
// camus_compiler_{rules,bdd_nodes,arena_nodes} gauges, so a dashboard
// over /metrics shows churn cost the way Fig. 5c plots it.
func (s *Session) Recompile() (*Program, error) {
	start := time.Now()
	total := 0
	for _, h := range s.order {
		total += len(s.live[h])
	}
	live := s.coldRetained * (total + 1) / (s.coldConjs + 1)
	if s.arena.builder.Retained() > arenaSlack*live+4096 {
		// The classes never go stale (payload→action bindings are
		// append-only), but churn strands those that no longer occur; they go
		// with the terminals that name them.
		s.arena = newClassArena()
		if s.opts.Telemetry != nil {
			s.opts.Telemetry.Counter("camus_compiler_arena_resets_total").Inc()
		}
	}
	cold := s.arena.builder.ArenaSize() == 0 // nothing built on it yet
	classes := len(s.arena.sets)
	conjs := make([]bdd.Conj, 0, total)
	for _, h := range s.order {
		conjs = append(conjs, s.live[h]...)
	}
	prog, err := compileFromConjs(s.sp, s.res.fields, s.res.actions, conjs, len(s.order), s.opts, s.arena)
	if err != nil {
		return nil, err
	}
	if cold {
		s.coldRetained, s.coldConjs = s.arena.builder.Retained(), total
	}
	if tel := s.opts.Telemetry; tel != nil {
		// A miss is a class this recompile had to make an ActionSet of, a
		// hit a terminal whose class the arena already had. Every class made
		// is some terminal's.
		misses := uint64(len(s.arena.sets) - classes)
		tel.Counter("camus_compiler_memo_hits_total").Add(uint64(len(prog.BDD.Terminals())) - misses)
		tel.Counter("camus_compiler_memo_misses_total").Add(misses)
		tel.Counter("camus_compiler_recompiles_total").Inc()
		tel.Histogram("camus_compiler_recompile_seconds").Observe(time.Since(start))
		tel.Gauge("camus_compiler_rules").Set(int64(len(s.order)))
		tel.Gauge("camus_compiler_bdd_nodes").Set(int64(prog.Stats.BDDNodes))
		tel.Gauge("camus_compiler_arena_nodes").Set(int64(s.arena.builder.ArenaSize()))
		tel.Gauge("camus_compiler_table_entries").Set(int64(prog.Stats.TableEntries))
	}
	return prog, nil
}
