package compiler

import (
	"fmt"
	"time"

	"camus/internal/bdd"
	"camus/internal/lang"
	"camus/internal/spec"
)

// Session is an incremental compilation context for a churning
// subscription set. It keeps four things alive across recompiles:
//
//   - the resolver, so each rule is normalized and resolved exactly once
//     (added rules get persistent payload IDs that never shift when other
//     rules are removed — the property that makes BDD memoization hit);
//   - the per-rule resolved conjunctions, cached at AddRules time;
//   - a bdd.Builder arena, so Recompile rebuilds only the sub-BDDs whose
//     alive conjunction sets actually changed;
//   - a merged-ActionSet memo keyed by terminal payload set, so terminals
//     whose subscriber population survived the churn skip the
//     merge-and-sort of their action lists.
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

	res     *resolver
	builder *bdd.Builder
	actMemo map[string]ActionSet // terminal payload set → merged ActionSet

	order []int // live rule handles, insertion order
	live  map[int]sessionRule

	lastLiveNodes int // BDD size of the latest Recompile, for arena trimming
}

type sessionRule struct {
	conjs []bdd.Conj
}

// arenaSlack is the tolerated ratio of retained arena nodes to live BDD
// nodes before Recompile discards the arena. Churn strands the sub-BDDs
// of removed rules in the memo tables; resetting once they dominate keeps
// memory proportional to the live set at the cost of one cold build.
const arenaSlack = 8

// NewSession creates an empty incremental compilation session against a
// spec. The options apply to every Recompile.
func NewSession(sp *spec.Spec, opts Options) *Session {
	return &Session{
		sp:      sp,
		opts:    opts,
		res:     newResolver(sp),
		builder: bdd.NewBuilder(),
		actMemo: make(map[string]ActionSet),
		live:    make(map[int]sessionRule),
	}
}

// Len returns the number of live rules.
func (s *Session) Len() int { return len(s.order) }

// ArenaNodes reports the number of BDD nodes retained in the memo arena
// (telemetry: warm recompiles reuse these instead of rebuilding).
func (s *Session) ArenaNodes() int { return s.builder.ArenaSize() }

// AddRules normalizes, resolves, and caches the given rules, returning
// one handle per rule for later removal. The rules join the live set but
// are not compiled until Recompile.
func (s *Session) AddRules(rules []lang.Rule) ([]int, error) {
	workers := s.opts.workers()
	dnf, err := lang.NormalizeAllParallel(rules, workers)
	if err != nil {
		return nil, err
	}
	rcs, err := s.res.resolveRules(dnf, workers)
	if err != nil {
		return nil, err
	}
	handles := make([]int, len(rcs))
	for i, rc := range rcs {
		handles[i] = rc.RuleID
		s.order = append(s.order, rc.RuleID)
		s.live[rc.RuleID] = sessionRule{conjs: rc.Conjs}
	}
	return handles, nil
}

// AddSource parses rule source text and adds the rules.
func (s *Session) AddSource(src string) ([]int, error) {
	rules, err := lang.ParseRules(src)
	if err != nil {
		return nil, err
	}
	return s.AddRules(rules)
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
	if s.builder.ArenaSize() > arenaSlack*s.lastLiveNodes+4096 {
		s.builder.Reset()
		// The action memo never goes stale (payload→action bindings are
		// append-only), but it strands entries for payload sets that no
		// longer occur; trim it on the same schedule as the arena.
		s.actMemo = make(map[string]ActionSet)
		if s.opts.Telemetry != nil {
			s.opts.Telemetry.Counter("camus_compiler_arena_resets_total").Inc()
		}
	}
	total := 0
	for _, h := range s.order {
		total += len(s.live[h].conjs)
	}
	conjs := make([]bdd.Conj, 0, total)
	for _, h := range s.order {
		conjs = append(conjs, s.live[h].conjs...)
	}
	prog, err := compileFromConjs(s.sp, s.res.fields, s.res.actions, conjs, len(s.order), s.opts, s.builder, s.actMemo)
	if err != nil {
		return nil, err
	}
	s.lastLiveNodes = prog.Stats.BDDNodes
	if tel := s.opts.Telemetry; tel != nil {
		tel.Counter("camus_compiler_recompiles_total").Inc()
		tel.Histogram("camus_compiler_recompile_seconds").Observe(time.Since(start))
		tel.Gauge("camus_compiler_rules").Set(int64(len(s.order)))
		tel.Gauge("camus_compiler_bdd_nodes").Set(int64(prog.Stats.BDDNodes))
		tel.Gauge("camus_compiler_arena_nodes").Set(int64(s.builder.ArenaSize()))
		tel.Gauge("camus_compiler_table_entries").Set(int64(prog.Stats.TableEntries))
	}
	return prog, nil
}
