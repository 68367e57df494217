package compiler_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"camus/internal/compiler"
	"camus/internal/workload"
)

// TestProgramRetainedHeap: a compiled 20k-rule Fig. 5c program of the
// subs-churn workload's shape (100 stocks, 200 hosts, grid 10) retains at
// most 2.5 MB of heap once the garbage is collected: its tables, action
// sets, groups and state signatures, and not the diagram, the conjunctions
// or a node index. During a live update two programs are live beside the
// compile, so each MB a program keeps raises the update's peak by several.
// It counts bytes and times nothing.
func TestProgramRetainedHeap(t *testing.T) {
	const budget = 5 << 19
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1,
	})
	sp := workload.ITCHSpec()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d rules, %d entries, %d groups: %.2f MB retained", len(rules), prog.Stats.TableEntries, len(prog.Groups), float64(retained)/(1<<20))
	if retained > budget {
		t.Fatalf("the program retains %.2f MB, want at most %.2f MB", float64(retained)/(1<<20), float64(budget)/(1<<20))
	}
	runtime.KeepAlive(prog)
	runtime.KeepAlive(rules)
}

// TestSessionRetainedUnderChurn: what a session keeps is proportional to its
// live set. After 50 rounds of 1% fresh churn at 10k Fig. 5c rules, the heap
// it retains is within 1.5x of what a new session synced to the same live set
// retains. It counts bytes and times nothing.
func TestSessionRetainedUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 10k rules 52 times")
	}
	const n, rounds = 10000, 50
	const churn = n / 100
	cfg := workload.ITCHSubsConfig{Subscriptions: n, Stocks: 100, Hosts: 2, PriceMax: 1000, PriceGrid: 1, Seed: 1}
	live := workload.ITCHSubscriptions(cfg)
	cfg.Subscriptions, cfg.Seed = churn*rounds, 2
	fresh := workload.ITCHSubscriptions(cfg)
	sp := workload.ITCHSpec()
	sync := func(s *compiler.Session) {
		var text strings.Builder
		for _, r := range live {
			text.WriteString(r.String() + "\n")
		}
		if err := s.Sync(context.Background(), compiler.Source{Text: text.String()}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recompile(); err != nil {
			t.Fatal(err)
		}
	}
	churned := compiler.NewSession(sp, compiler.Options{})
	sync(churned)
	for round := 0; round < rounds; round++ {
		at := round * churn * 7 % n // a different 1% each round
		copy(live[at:at+churn], fresh[round*churn:])
		sync(churned)
	}
	cold := compiler.NewSession(sp, compiler.Options{})
	sync(cold)
	// Each session's heap is what a collection frees once it is dead.
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	both := heap()
	runtime.KeepAlive(churned)
	one := heap()
	runtime.KeepAlive(cold)
	got, want := both-one, one-heap()
	t.Logf("churned session retains %.2f MB, a new one %.2f MB", float64(got)/(1<<20), float64(want)/(1<<20))
	if 2*got > 3*want {
		t.Fatalf("after %d rounds of churn the session retains %.2f MB, a new one synced to the same set %.2f MB", rounds, float64(got)/(1<<20), float64(want)/(1<<20))
	}
}
