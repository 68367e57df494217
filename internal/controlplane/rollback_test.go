package controlplane

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

// probeVectors builds a few representative packet value vectors. The
// field layout is identical across programs compiled from the same spec,
// so the vectors stay valid across updates.
func probeVectors(t *testing.T, sp *spec.Spec, prog *compiler.Program) [][]uint64 {
	t.Helper()
	googl := encodeSym(t, sp, "GOOGL")
	aapl := encodeSym(t, sp, "AAPL")
	var out [][]uint64
	for _, pv := range []struct{ stock, price, shares uint64 }{
		{googl, 100, 50}, {aapl, 5, 500}, {googl, 7, 1000},
	} {
		vals := make([]uint64, len(prog.Fields))
		for i, f := range prog.Fields {
			switch f.Name {
			case "add_order.stock":
				vals[i] = pv.stock
			case "add_order.price":
				vals[i] = pv.price
			case "add_order.shares":
				vals[i] = pv.shares
			}
		}
		out = append(out, vals)
	}
	return out
}

// snapshot records the switch's forwarding decision for every probe — a
// behavioral fingerprint of the installed program.
func snapshot(sw *pipeline.Switch, vecs [][]uint64) string {
	var b strings.Builder
	for _, v := range vecs {
		r := sw.Process(v, 0)
		fmt.Fprintf(&b, "ports=%v dropped=%v group=%d; ", r.Ports, r.Dropped, r.Group)
	}
	return b.String()
}

func compileRace(t *testing.T, sp *spec.Spec, src string) *compiler.Program {
	t.Helper()
	prog, err := compiler.CompileSource(sp, src, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestInstallRollbackUnderRace injects device write failures mid-install
// while packet goroutines hammer Process. After each failed install the
// switch must serve the old program bit-identically (same forwarding
// decisions on every probe), including when the faulty write landed
// before erroring (dirty failure), which forces a compensating rollback
// write. Every concurrent packet must see a complete program: forwarded
// GOOGL packets go to the old or the new port set, never anything else.
func TestInstallRollbackUnderRace(t *testing.T) {
	forEachRoute(t, pipeline.Config{}, "stock == GOOGL : fwd(1)\n", func(t *testing.T, r *route) {
		sw, dev, oldProg := r.sw, r.dev, r.ctl.Program()
		r.ctl.Policy.Sleep = func(time.Duration) {}

		vecs := probeVectors(t, r.sp, oldProg)
		before := snapshot(sw, vecs)

		googl := encodeSym(t, r.sp, "GOOGL")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				values := make([]uint64, len(oldProg.Fields))
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i, f := range oldProg.Fields {
						if f.Name == "add_order.stock" {
							values[i] = googl
						} else {
							values[i] = 1
						}
					}
					res := sw.Process(values, 0)
					if res.Dropped {
						t.Error("GOOGL packet dropped mid-update")
						return
					}
					for _, p := range res.Ports {
						if p != 1 && p != 3 {
							t.Errorf("packet saw torn program: ports %v", res.Ports)
							return
						}
					}
				}
			}()
		}

		const next = "stock == GOOGL : fwd(3)\n"
		// Round 1: the write fails cleanly before landing.
		dev.FailOn(dev.Calls()+1, false)
		if _, err := r.push(context.Background(), next); err == nil {
			t.Fatal("install with permanent write failure succeeded")
		}
		if got := snapshot(sw, vecs); got != before {
			t.Fatalf("after clean failure:\n got %s\nwant %s", got, before)
		}

		// Round 2: the write lands and then errors — rollback must issue a
		// compensating write to restore the old program.
		dev.FailDirtyOn(dev.Calls()+1, false)
		if _, err := r.push(context.Background(), next); err == nil {
			t.Fatal("install with dirty write failure succeeded")
		}
		if got := snapshot(sw, vecs); got != before {
			t.Fatalf("after dirty failure:\n got %s\nwant %s", got, before)
		}
		if r.ctl.Program() != oldProg {
			t.Fatal("controller advanced past a failed install")
		}

		// Round 3: no faults — the same update goes through. (Through Churn
		// the session already holds the new set; this converges the device.)
		if _, err := r.push(context.Background(), next); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if got := snapshot(sw, vecs); got == before {
			t.Fatal("successful install changed nothing")
		}
	})
}

// TestInstallRetriesTransient: transient write failures are retried with
// exponential backoff and the install then succeeds with no rollback.
func TestInstallRetriesTransient(t *testing.T) {
	forEachRoute(t, pipeline.Config{}, "stock == GOOGL : fwd(1)\n", func(t *testing.T, r *route) {
		dev := r.dev
		var sleeps []time.Duration
		r.ctl.Policy.Sleep = func(d time.Duration) { sleeps = append(sleeps, d) }

		dev.FailOn(1, true)
		dev.FailOn(2, true)
		if _, err := r.push(context.Background(), "stock == GOOGL : fwd(2)\n"); err != nil {
			t.Fatalf("transient failures not retried: %v", err)
		}
		if dev.Calls() != 3 {
			t.Fatalf("device saw %d calls, want 3 (two transient failures + success)", dev.Calls())
		}
		want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
		if fmt.Sprint(sleeps) != fmt.Sprint(want) {
			t.Fatalf("backoff schedule %v, want %v", sleeps, want)
		}

		// Exhausting the retry budget turns a transient failure permanent.
		for call := dev.Calls() + 1; call <= dev.Calls()+10; call++ {
			dev.FailOn(call, true)
		}
		if _, err := r.push(context.Background(), "stock == GOOGL : fwd(3)\n"); err == nil {
			t.Fatal("endless transient failures should exhaust retries")
		}
	})
}

// TestOversizedInstallLeavesProgramLive: a program that cannot fit the
// device never displaces the running one. Update and Churn reject it in
// phase one, before a single device write; Install skips admission by
// contract, so there the device itself refuses and the commit rolls back.
func TestOversizedInstallLeavesProgramLive(t *testing.T) {
	tiny := pipeline.DefaultConfig()
	tiny.SRAMPerStage = 16
	tiny.TCAMPerStage = 16
	tiny.Stages = 8
	forEachRoute(t, tiny, "stock == GOOGL : fwd(1)\n", func(t *testing.T, r *route) {
		oldProg := r.ctl.Program()
		// Every rule its own port: 200 thresholds cut the price into 201
		// cells that each forward to a different set, so none can merge.
		var big strings.Builder
		for i := 0; i < 200; i++ {
			fmt.Fprintf(&big, "price > %d : fwd(%d)\n", i+1, i+1)
		}
		if _, err := r.push(context.Background(), big.String()); err == nil {
			t.Fatal("oversized install admitted")
		}
		if r.admits && r.dev.Calls() != 0 {
			t.Fatalf("admission rejection still issued %d device writes", r.dev.Calls())
		}
		if r.ctl.Program() != oldProg {
			t.Fatal("controller advanced past a rejected install")
		}
		if got := snapshot(r.sw, probeVectors(t, r.sp, oldProg)); !strings.Contains(got, "ports=[1]") {
			t.Fatalf("device disturbed by rejected install: %s", got)
		}
	})
}

// TestChurnConvergesWithoutNewRules: after a failed Churn the session
// keeps the new rule set while the device serves the old program; a Churn
// that changes nothing pushes the already-recompiled session state.
func TestChurnConvergesWithoutNewRules(t *testing.T) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	sess := compiler.NewSession(sp, compiler.Options{})
	ctl, handles, err := NewSessionController(sess, parseRules(t, "stock == GOOGL : fwd(1)\nstock == AAPL : fwd(2)\n"), pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dev := faults.NewFlakyDevice(ctl.Switch())
	ctl.SetDevice(dev)
	before := snapshot(ctl.Switch(), probeVectors(t, sp, ctl.Program()))

	dev.FailDirtyOn(1, false)
	if _, _, err := ctl.Churn(context.Background(), parseRules(t, "price > 10 : fwd(7)\n"), handles[:1]); err == nil {
		t.Fatal("churn with permanent device failure succeeded")
	}
	if _, _, err := ctl.Churn(context.Background(), nil, nil); err != nil {
		t.Fatalf("convergence churn: %v", err)
	}
	if got := snapshot(ctl.Switch(), probeVectors(t, sp, ctl.Program())); got == before {
		t.Fatal("converged program identical to pre-churn program")
	}
}
