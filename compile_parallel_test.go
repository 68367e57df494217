package camus

import (
	"math/rand"
	"reflect"
	"testing"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/workload"
)

// requireSameProgramsW fails unless the two programs are bit-identical in
// every externally observable way: stats, table entries, leaf actions,
// multicast groups, and forwarding behavior on random probes. It is the
// workload-level twin of the helper in internal/compiler's tests.
func requireSameProgramsW(t *testing.T, want, got *compiler.Program, probes [][]uint64) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Fatalf("stats differ:\n serial:   %+v\n parallel: %+v", want.Stats, got.Stats)
	}
	if want.InitialState != got.InitialState {
		t.Fatalf("initial state %d != %d", got.InitialState, want.InitialState)
	}
	if w, g := want.Dump(), got.Dump(); w != g {
		t.Fatalf("table dumps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", w, g)
	}
	if !reflect.DeepEqual(want.Groups, got.Groups) {
		t.Fatalf("multicast groups differ: %v != %v", got.Groups, want.Groups)
	}
	for i := range want.Tables {
		if !reflect.DeepEqual(want.Tables[i].Entries, got.Tables[i].Entries) {
			t.Fatalf("table %d entries differ", i)
		}
	}
	for _, vals := range probes {
		w := want.Evaluate(append([]uint64(nil), vals...))
		g := got.Evaluate(append([]uint64(nil), vals...))
		if w.Key() != g.Key() {
			t.Fatalf("evaluate(%v): %q != %q", vals, g.Key(), w.Key())
		}
	}
}

func randomProgramProbes(p *compiler.Program, n int, seed int64) [][]uint64 {
	r := rand.New(rand.NewSource(seed))
	probes := make([][]uint64, n)
	for i := range probes {
		vals := make([]uint64, len(p.Fields))
		for f := range vals {
			if max := p.Fields[f].Max; max != ^uint64(0) {
				vals[f] = r.Uint64() % (max + 1)
			} else {
				vals[f] = r.Uint64()
			}
		}
		probes[i] = vals
	}
	return probes
}

// TestParallelCompileMatchesSerialITCH is the differential guarantee the
// Workers knob advertises: on the Fig. 5c ITCH workload, a parallel
// compile is bit-identical to the fully serial one. The workload is more
// than one front-end chunk, so every fan-out path actually runs.
func TestParallelCompileMatchesSerialITCH(t *testing.T) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = 2000
	rules := workload.ITCHSubscriptions(cfg)

	serial, err := compiler.Compile(sp, rules, compiler.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, err := compiler.Compile(sp, rules, compiler.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		requireSameProgramsW(t, serial, par, randomProgramProbes(serial, 300, 7))
	}
}

// TestParallelCompileMatchesSerialSiena repeats the differential check on
// the Siena workload, which exercises range predicates, multi-field
// conjunctions, and domain compression.
func TestParallelCompileMatchesSerialSiena(t *testing.T) {
	cfg := workload.DefaultSienaConfig()
	cfg.Subscriptions = 600
	cfg.Predicates = 4
	sp := workload.SienaSpec(cfg)
	rules := workload.Siena(cfg)

	serial, err := compiler.Compile(sp, rules, compiler.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := compiler.Compile(sp, rules, compiler.Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	requireSameProgramsW(t, serial, par, randomProgramProbes(serial, 300, 11))
}

// TestSessionChurnMatchesFullCompile drives an incremental Session through
// several churn rounds of the ITCH workload and checks after every round
// that the memoized recompile is indistinguishable from compiling the live
// rule set from scratch.
func TestSessionChurnMatchesFullCompile(t *testing.T) {
	sp := workload.ITCHSpec()
	cfg := workload.DefaultITCHSubsConfig()
	cfg.Subscriptions = 1000
	rules := workload.ITCHSubscriptions(cfg)

	sess := compiler.NewSession(sp, compiler.Options{})
	handles, err := sess.AddRules(rules)
	if err != nil {
		t.Fatal(err)
	}

	// The session's live set, mirrored as (handle, rule) in insertion
	// order so a reference full compile can be built each round.
	type liveEntry struct {
		handle int
		rule   lang.Rule
	}
	live := make([]liveEntry, len(rules))
	for i := range rules {
		live[i] = liveEntry{handles[i], rules[i]}
	}

	extraCfg := cfg
	extraCfg.Seed = 999
	extra := workload.ITCHSubscriptions(extraCfg)
	nextExtra := 0

	r := rand.New(rand.NewSource(42))
	for round := 0; round < 3; round++ {
		// Remove 1% of the live set, add the same number of fresh rules.
		n := len(live) / 100
		for i := 0; i < n; i++ {
			j := r.Intn(len(live))
			if err := sess.RemoveRules(live[j].handle); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		add := extra[nextExtra : nextExtra+n]
		nextExtra += n
		newHandles, err := sess.AddRules(add)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range newHandles {
			live = append(live, liveEntry{h, add[i]})
		}

		inc, err := sess.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		if sess.Len() != len(live) {
			t.Fatalf("session tracks %d rules, test mirror has %d", sess.Len(), len(live))
		}

		liveRules := make([]lang.Rule, len(live))
		for i, e := range live {
			liveRules[i] = e.rule
		}
		full, err := compiler.Compile(sp, liveRules, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireSameProgramsW(t, full, inc, randomProgramProbes(full, 200, int64(round)))
	}
}
