package core

import (
	"fmt"
	"reflect"
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
	mp.Append((&itch.SystemEvent{EventCode: 'O'}).Bytes()) // skipped

	ds, err := ps.ProcessDatagram(mp.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(ds))
	}
	if !reflect.DeepEqual(ds[0].Ports, []int{1, 2}) || ds[0].Group < 0 {
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
