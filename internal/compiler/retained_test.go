package compiler_test

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/spec"
	"camus/internal/workload"
)

// TestProgramRetainedHeap: a compiled 20k-rule Fig. 5c program of the
// subs-churn workload's shape (100 stocks, 200 hosts, grid 10) retains at
// most 2.5 MB of heap once the garbage is collected: its tables, action
// sets, groups and state signatures, and not the diagram, the conjunctions
// or a node index. During a live update two programs are live beside the
// compile, so each MB a program keeps raises the update's peak by several.
// Compiled from rule text, as a switch compiles, it keeps no part of the
// text: nothing of a chunk's arena either, whose atoms are parts of it. It
// counts bytes and times nothing.
func TestProgramRetainedHeap(t *testing.T) {
	const budget = 5 << 19
	rules := workload.ITCHSubscriptions(workload.ITCHSubsConfig{
		Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1,
	})
	sp := workload.ITCHSpec()
	for _, from := range []string{"rules", "source"} {
		var freed <-chan struct{}
		compile := func() (*compiler.Program, error) { return compiler.Compile(sp, rules, compiler.Options{}) }
		if from == "source" {
			compile = func() (*compiler.Program, error) {
				var src string
				src, freed = freeableText(rules)
				return compiler.CompileSource(sp, src, compiler.Options{})
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		prog, err := compile()
		if err != nil {
			t.Fatal(err)
		}
		if freed != nil && !collected(freed) {
			t.Fatalf("a program compiled from rule text keeps the text")
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("from %s: %d rules, %d entries, %d groups: %.2f MB retained", from, len(rules), prog.Stats.TableEntries, len(prog.Groups), float64(retained)/(1<<20))
		if retained > budget {
			t.Fatalf("from %s: the program retains %.2f MB, want at most %.2f MB", from, float64(retained)/(1<<20), float64(budget)/(1<<20))
		}
		runtime.KeepAlive(prog)
	}
	runtime.KeepAlive(rules)
}

// freeableText is the rules' text, one a line, and a channel closed once the
// text is garbage: its bytes are a heap object of their own, with a
// finalizer.
func freeableText(rules []lang.Rule) (string, <-chan struct{}) {
	b := []byte(ruleText(rules))
	freed := make(chan struct{})
	runtime.SetFinalizer(&b[0], func(*byte) { close(freed) })
	return unsafe.String(&b[0], len(b)), freed
}

// collected reports whether freed is closed within a few collections, that
// is, whether nothing holds on to the text freeableText gave with it.
func collected(freed <-chan struct{}) bool {
	for try := 0; try < 20; try++ {
		select {
		case <-freed:
			return true
		default:
			runtime.GC() // the finalizer runs after it, on a goroutine of its own
			time.Sleep(time.Millisecond)
		}
	}
	return false
}

// TestSessionRetainedUnderChurn: what a session keeps is proportional to its
// live set. After 50 rounds of 1% fresh churn at 10k Fig. 5c rules, the heap
// it retains is within 1.5x of what a new session synced to the same live set
// retains. Neither keeps any part of a rule text it was synced to, nor of a
// chunk's arena, whose atoms are parts of the text: a predicate's names and
// an action list are copies, so the new one retains within 16 KB of one
// synced to the parsed rules. It counts bytes and times nothing.
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
	var texts []<-chan struct{}
	sync := func(s *compiler.Session) {
		src, freed := freeableText(live)
		texts = append(texts, freed)
		if err := s.Sync(context.Background(), compiler.Source{Text: src}); err != nil {
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
	cold, parsed := compiler.NewSession(sp, compiler.Options{}), compiler.NewSession(sp, compiler.Options{})
	sync(cold)
	if err := parsed.Sync(context.Background(), compiler.Source{Rules: live}); err != nil {
		t.Fatal(err)
	}
	if _, err := parsed.Recompile(); err != nil {
		t.Fatal(err)
	}
	// Each session's heap is what a collection frees once it is dead.
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for i, freed := range texts {
		if !collected(freed) {
			t.Fatalf("a live session keeps the text of sync %d of %d", i+1, len(texts))
		}
	}
	all := heap()
	runtime.KeepAlive(churned)
	two := heap()
	runtime.KeepAlive(cold)
	one := heap()
	runtime.KeepAlive(parsed)
	got, want, fromRules := all-two, two-one, one-heap()
	t.Logf("churned session retains %.2f MB, a new one %.2f MB, a new one synced to the parsed rules %.2f MB",
		float64(got)/(1<<20), float64(want)/(1<<20), float64(fromRules)/(1<<20))
	if 2*got > 3*want {
		t.Fatalf("after %d rounds of churn the session retains %.2f MB, a new one synced to the same set %.2f MB", rounds, float64(got)/(1<<20), float64(want)/(1<<20))
	}
	if want > fromRules+16<<10 {
		t.Fatalf("synced to the rule text a session retains %.2f MB, synced to the parsed rules %.2f MB", float64(want)/(1<<20), float64(fromRules)/(1<<20))
	}
}

// TestProgramHoldsNoSlack: every list a compiled program keeps — each
// table's entries, the leaf's, the action sets and the multicast groups —
// is allocated at its length, so the installed program, which the next
// install diffs against, holds no append slack. It compiles the rules of
// the socket benchmark's four workloads: itch-sparse, itch-fanout,
// itch-stateful (its keyed windows over a body of Fig. 5c rules) and
// subs-churn.
func TestProgramHoldsNoSlack(t *testing.T) {
	stateful, err := spec.Parse(workload.ITCHSpecSource + "@query_counter(rate, 10000)\n@query_counter(px, 10000)\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := stateful.SetFieldOrder("stock", "price", "shares"); err != nil {
		t.Fatal(err)
	}
	const keyed = `true : rate[add_order.stock] <- count()
true : px[add_order.stock] <- sample(add_order.price)
rate[add_order.stock] >= 8 && rate[add_order.stock] < 14 && avg(px)[add_order.stock] > 500 : fwd(1)
rate[add_order.stock] >= 8 && rate[add_order.stock] < 14 && avg(px)[add_order.stock] <= 500 : fwd(2)
`
	subs := func(n, hosts int, grid uint64) string {
		return workload.ITCHSubscriptionSource(workload.ITCHSubsConfig{Subscriptions: n, Stocks: 100, Hosts: hosts, PriceMax: 1000, PriceGrid: grid, Seed: 1})
	}
	for _, w := range []struct {
		name string
		sp   *spec.Spec
		src  string
	}{
		{"itch-sparse", workload.ITCHSpec(), subs(10000, 2, 1)},
		{"itch-fanout", workload.ITCHSpec(), workload.FanoutSubscriptionSource(20, 320)},
		{"itch-stateful", stateful, keyed + subs(2000, 2, 1)},
		{"subs-churn", workload.ITCHSpec(), subs(20000, 200, 10)},
	} {
		prog, err := compiler.CompileSource(w.sp, w.src, compiler.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, slack := range prog.Slack() {
			t.Errorf("%s: %s", w.name, slack)
		}
	}
}

// TestSessionStaleSizeHints: a recompile sizes what it builds by the last
// recompile's counts, and a hint from a set a hundred times smaller or a few
// times larger changes nothing it makes. A session synced to 20k Fig. 5c
// rules, then to 200 of them, then to the 20k again, then to 8k compiles
// CompileSource's program, with no slack, at each step. After the shrink to
// 200 the session retains within 1.5x of a new one synced to the 200, the
// bound of TestSessionRetainedUnderChurn.
func TestSessionStaleSizeHints(t *testing.T) {
	cfg := workload.ITCHSubsConfig{Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1}
	big := workload.ITCHSubscriptionSource(cfg)
	cfg.Subscriptions = 200
	small := workload.ITCHSubscriptionSource(cfg)
	cfg.Subscriptions = 8000
	mid := workload.ITCHSubscriptionSource(cfg)
	sp := workload.ITCHSpec()
	sync := func(s *compiler.Session, src string) *compiler.Program {
		t.Helper()
		if err := s.Sync(context.Background(), compiler.Source{Text: src}); err != nil {
			t.Fatal(err)
		}
		prog, err := s.Recompile()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	s := compiler.NewSession(sp, compiler.Options{})
	for _, step := range []struct{ name, src string }{{"20k", big}, {"200", small}, {"20k again", big}, {"8k", mid}} {
		want, err := compiler.CompileSource(sp, step.src, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := sync(s, step.src)
		if !reflect.DeepEqual(got, want) || got.Dump() != want.Dump() {
			t.Fatalf("%s: the session compiles %+v, CompileSource %+v", step.name, got.Stats, want.Stats)
		}
		if slack := got.Slack(); len(slack) > 0 {
			t.Fatalf("%s: %v", step.name, slack)
		}
	}

	shrunk, cold := compiler.NewSession(sp, compiler.Options{}), compiler.NewSession(sp, compiler.Options{})
	sync(shrunk, big)
	sync(shrunk, small)
	sync(cold, small)
	// Each session's heap is what a collection frees once it is dead.
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	both := heap()
	runtime.KeepAlive(shrunk)
	one := heap()
	runtime.KeepAlive(cold)
	got, want := both-one, one-heap()
	t.Logf("shrunk session retains %.1f KB, a new one %.1f KB", float64(got)/(1<<10), float64(want)/(1<<10))
	if 2*got > 3*want {
		t.Fatalf("synced from 20k rules to 200 the session retains %.1f KB, a new one synced to the 200 %.1f KB", float64(got)/(1<<10), float64(want)/(1<<10))
	}
}
