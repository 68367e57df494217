package compiler_test

import (
	"runtime"
	"testing"

	"camus/internal/compiler"
	"camus/internal/workload"
)

// TestProgramRetainedHeap: a compiled 20k-rule Fig. 5c program of the
// subs-churn workload's shape (100 stocks, 200 hosts, grid 10) retains at
// most 7 MB of heap once the garbage is collected. During a live update two
// programs are live beside the compile, so each MB a program keeps raises
// the update's peak by several. It counts bytes and times nothing.
func TestProgramRetainedHeap(t *testing.T) {
	const budget = 7 << 20
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
