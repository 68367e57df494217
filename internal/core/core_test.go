package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/itch"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/workload"
)

func newEngine(t *testing.T) *PubSub {
	t.Helper()
	ps, err := NewPubSub(spec.MustParse(workload.ITCHSpecSource), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestNewPubSubStartsEmpty(t *testing.T) {
	ps := newEngine(t)
	if ps.Program() == nil || ps.Switch() == nil {
		t.Fatal("accessors nil")
	}
	if ps.Program().Stats.Rules != 0 {
		t.Fatalf("fresh engine has %d rules", ps.Program().Stats.Rules)
	}
	var o itch.AddOrder
	o.SetStock("ANY")
	if res := ps.ProcessOrder(&o, 0); !res.Dropped {
		t.Fatalf("empty engine should drop: %+v", res)
	}
}

func TestProcessDatagramDeliveries(t *testing.T) {
	ps := newEngine(t)
	if _, err := ps.SetSubscriptions("stock == GOOGL : fwd(1,2)\n"); err != nil {
		t.Fatal(err)
	}
	var mp itch.MoldPacket
	var a, b itch.AddOrder
	a.SetStock("GOOGL")
	b.SetStock("ORCL")
	mp.Append(a.Bytes())
	mp.Append(b.Bytes())
	se := make([]byte, 12) // an ITCH system event, skipped
	se[0] = 'S'
	mp.Append(se)

	ds, err := ps.ProcessDatagram(mp.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(ds))
	}
	if !reflect.DeepEqual(ds[0].Ports.AppendTo(nil), []int{1, 2}) || ds[0].Group < 0 {
		t.Fatalf("delivery = %+v", ds[0])
	}
	if ds[0].Order.StockSymbol() != "GOOGL" {
		t.Fatalf("delivered %q", ds[0].Order.StockSymbol())
	}
}

func TestProcessDatagramError(t *testing.T) {
	ps := newEngine(t)
	if _, err := ps.ProcessDatagram([]byte("short"), 0); err == nil {
		t.Fatal("malformed datagram should error")
	}
}

func TestSetSubscriptionsRejectsOversized(t *testing.T) {
	tiny := pipeline.DefaultConfig()
	tiny.SRAMPerStage = 4
	tiny.TCAMPerStage = 4
	tiny.Stages = 4
	ps, err := NewPubSub(spec.MustParse(workload.ITCHSpecSource), Config{Switch: tiny})
	if err != nil {
		t.Fatal(err)
	}
	big := workload.ITCHSubscriptionSource(workload.ITCHSubsConfig{
		Subscriptions: 500, Stocks: 100, Hosts: 8, PriceMax: 1000, PriceGrid: 1, Seed: 1,
	})
	if _, err := ps.SetSubscriptions(big); err == nil {
		t.Fatal("oversized set should be rejected")
	}
	// Engine still serves the previous (empty) program.
	var o itch.AddOrder
	o.SetStock("GOOGL")
	if res := ps.ProcessOrder(&o, 0); !res.Dropped {
		t.Fatalf("engine broken after failed update: %+v", res)
	}
}

func TestCompilerOptionsPropagate(t *testing.T) {
	ps, err := NewPubSub(spec.MustParse(workload.ITCHSpecSource), Config{
		Compiler: compiler.Options{DisableCompression: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.ITCHSubscriptionSource(workload.ITCHSubsConfig{
		Subscriptions: 2000, Stocks: 20, Hosts: 16, PriceMax: 1000, PriceGrid: 10, Seed: 1,
	})
	if _, err := ps.SetSubscriptions(src); err != nil {
		t.Fatal(err)
	}
	for _, tab := range ps.Program().Tables {
		if tab.Codec != nil {
			t.Fatal("compression should be disabled via Config.Compiler")
		}
	}
}

// TestProcessorBatchSeesOneProgramDuringInstall: a Processor loops
// Begin/Add/Flush while an Install waits out a retry backoff inside commit,
// and after. No batch waits for the install, and each batch is judged by
// exactly one program: the old one until the device swaps, the new one
// from then on.
func TestProcessorBatchSeesOneProgramDuringInstall(t *testing.T) {
	ps := newEngine(t)
	if _, err := ps.SetSubscriptions("stock == GOOGL : fwd(1)"); err != nil {
		t.Fatal(err)
	}
	dev := faults.NewFlakyDevice(ps.sw)
	dev.FailOn(1, true)
	ps.ctl.SetDevice(dev)
	held, release := make(chan struct{}), make(chan struct{})
	ps.ctl.Policy.Sleep = func(time.Duration) { close(held); <-release }

	var googl, orcl itch.AddOrder
	googl.SetStock("GOOGL")
	orcl.SetStock("ORCL")
	proc := ps.NewProcessor()
	// batch runs GOOGL, ORCL, GOOGL, ORCL and names what each message got.
	batch := func() string {
		proc.Begin()
		for i := 0; i < 2; i++ {
			proc.Add(&googl)
			proc.Add(&orcl)
		}
		var got string
		for _, r := range proc.Flush(0) {
			got += fmt.Sprint(r.Ports, " ")
		}
		return got
	}
	const oldProg, newProg = "[1] [] [1] [] ", "[] [2] [] [2] "

	done := make(chan error, 1)
	go func() {
		_, err := ps.SetSubscriptions("stock == ORCL : fwd(2)")
		done <- err
	}()
	<-held
	for i := 0; i < 100; i++ {
		if got := batch(); got != oldProg {
			t.Fatalf("batch %d while the install is held: %q, want the old program's %q", i, got, oldProg)
		}
	}
	close(release)
	swapped := false
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		switch got := batch(); {
		case got == newProg:
			swapped = true
		case got != oldProg || swapped:
			t.Fatalf("batch after release: %q (swapped %v); want %q, then only %q", got, swapped, oldProg, newProg)
		}
	}
	if !swapped {
		t.Fatal("no batch saw the new program after the install returned")
	}
}

// cancelAfter is a context that is done once Err has been asked n times: a
// compile it is handed gives up between chunks, past the first.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestSetSubscriptionsMatchesCompileSource: after every update of a
// sequence, the switch runs what an oracle switch runs that was given
// compiler.CompileSource of each text instead — the same Dump, and equal
// field for field, state numbering and action sums included. The sequence
// churns 1% of the rules, reorders them, repeats lines, adds comment and
// blank lines, and changes the order keyed-state rules first read their
// fields in. A rule that does not resolve or does not parse fails with
// CompileSource's error — its rule number, line and column — and a context
// done between chunks of new rules with the context's; either leaves the
// installed program as it was, and the next good update is still the
// oracle's.
func TestSetSubscriptionsMatchesCompileSource(t *testing.T) {
	sp := spec.MustParse(workload.ITCHSpecSource + "@query_counter(rate, 10000)\n@query_counter(px, 10000)\n")
	ps, err := NewPubSub(sp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewPubSub(sp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := strings.SplitAfter(workload.ITCHSubscriptionSource(workload.ITCHSubsConfig{
		Subscriptions: 3000, Stocks: 50, Hosts: 8, PriceMax: 1000, PriceGrid: 10, Seed: 1,
	}), "\n")
	base = base[:len(base)-1] // the empty string after the last newline
	fresh := strings.SplitAfter(workload.ITCHSubscriptionSource(workload.ITCHSubsConfig{
		Subscriptions: 3000, Stocks: 50, Hosts: 8, PriceMax: 1000, PriceGrid: 10, Seed: 2,
	}), "\n")
	const rate, px = "rate[add_order.stock] > 5 : fwd(1)\n", "avg(px)[add_order.stock] > 3 : fwd(2)\n"
	churned := slices.Clone(base)
	copy(churned[500:], fresh[:len(base)/100])
	reversed := slices.Clone(churned)
	slices.Reverse(reversed)
	join := func(parts ...[]string) string {
		var b strings.Builder
		for _, p := range parts {
			b.WriteString(strings.Join(p, ""))
		}
		return b.String()
	}
	for _, step := range []struct {
		name, src string
		ctx       context.Context // nil: context.Background()
	}{
		{"first", join(base), nil},
		{"1% churn", join(churned), nil},
		{"reordered", join(reversed), nil},
		{"repeated lines", join(reversed[:100], reversed, reversed[50:60]), nil},
		{"comments and blanks", join([]string{"# subscriptions\n", "\n"}, churned[:1500], []string{"   \n", "  // more\r\n"}, churned[1500:]), nil},
		{"keyed state", join(churned[:10], []string{rate, px}, churned[10:]), nil},
		{"keyed state read in another order", join(churned[:10], []string{px, rate}, churned[10:]), nil},
		{"unknown field", join(churned[:2000], []string{"nosuch > 1 : fwd(3)\n"}, churned[2000:]), nil},
		{"syntax error", join(reversed[:1200], []string{"  stock == GOOGL && : fwd(1)\n"}, reversed[1200:]), nil},
		{"after the bad rules", join(base), nil},
		{"cancelled between chunks", join(fresh), &cancelAfter{Context: context.Background()}},
		{"after the cancel", join(fresh[:2500], base[:10]), nil},
	} {
		ctx := step.ctx
		if ctx == nil {
			ctx = context.Background()
		} else {
			ctx.(*cancelAfter).n.Store(1)
		}
		installed := ps.Program()
		_, err := ps.SetSubscriptionsContext(ctx, step.src)
		want, wantErr := compiler.CompileSource(sp, step.src, compiler.Options{})
		switch {
		case step.ctx != nil:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err %v, want context.Canceled", step.name, err)
			}
		case wantErr != nil:
			if err == nil || err.Error() != "camus: compile: "+wantErr.Error() {
				t.Fatalf("%s: err %v, CompileSource's %v", step.name, err, wantErr)
			}
		case err != nil:
			t.Fatalf("%s: %v", step.name, err)
		default:
			if _, err := oracle.Install(context.Background(), want); err != nil {
				t.Fatal(err)
			}
		}
		if err != nil && ps.Program() != installed {
			t.Fatalf("%s: a failed update changed the installed program", step.name)
		}
		got, oraclesProg := ps.Program(), oracle.Program()
		if got.Dump() != oraclesProg.Dump() || !reflect.DeepEqual(got, oraclesProg) {
			t.Fatalf("%s: the switch runs %+v, CompileSource's program installed runs %+v", step.name, got.Stats, oraclesProg.Stats)
		}
	}
}

// TestLiveUpdateAllocBudget: a 1% churn through SetSubscriptions at
// BenchmarkLiveUpdate's 20k×200 shape allocates at most 15 MiB, the median
// of three updates. A recompile makes each table at the size its counts
// give, and sizes what it throws away by them or by the last recompile's
// build. It counts bytes and times nothing.
func TestLiveUpdateAllocBudget(t *testing.T) {
	const budget = 15 << 20
	cfg := workload.ITCHSubsConfig{Subscriptions: 20000, Stocks: 100, Hosts: 200, PriceMax: 1000, PriceGrid: 10, Seed: 1}
	lines := strings.SplitAfter(workload.ITCHSubscriptionSource(cfg), "\n")
	cfg.Seed = 7777
	fresh := strings.SplitAfter(workload.ITCHSubscriptionSource(cfg), "\n")
	ps, err := NewPubSub(workload.ITCHSpec(), Config{Compiler: compiler.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.SetSubscriptions(strings.Join(lines, "")); err != nil {
		t.Fatal(err)
	}
	churn := len(lines) / 100
	var bytes []uint64
	for i := range 3 {
		at := i * churn * 7 % (len(lines) - churn)
		copy(lines[at:at+churn], fresh[i*churn:])
		src := strings.Join(lines, "")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ps.SetSubscriptions(src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = append(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(bytes)
	t.Logf("a 1%% update allocates %.2f MiB (of %v)", float64(bytes[1])/(1<<20), bytes)
	if bytes[1] > budget {
		t.Fatalf("a 1%% update allocates %.2f MiB, want at most %.2f MiB", float64(bytes[1])/(1<<20), float64(budget)/(1<<20))
	}
}
