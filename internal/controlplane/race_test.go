package controlplane

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/pipeline"
	"camus/internal/spec"
)

const raceSpecSrc = `
header_type itch_add_order_t {
    fields {
        shares: 32;
        stock: 64;
        price: 32;
    }
}
header itch_add_order_t add_order;

@query_field(add_order.shares)
@query_field(add_order.price)
@query_field_exact(add_order.stock)
`

// route is one public entry point into Controller.install, opened on a
// fresh switch that runs an initial rule set behind a fault-injecting
// device. push replaces the installed rule set with src through that
// entry point.
type route struct {
	sp     *spec.Spec
	sw     *pipeline.Switch
	dev    *faults.FlakyDevice
	ctl    *Controller
	admits bool // the entry point checks device resources before writing
	push   func(ctx context.Context, src string) (Delta, error)
}

// forEachRoute runs f against every entry point — Controller.Update,
// Controller.Install and SessionController.Churn — so the rollback,
// cancel, admission and race suites exercise the one install function
// through all three.
func forEachRoute(t *testing.T, cfg pipeline.Config, initial string, f func(t *testing.T, r *route)) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	full := func(install bool) func(t *testing.T) {
		return func(t *testing.T) {
			sw, err := pipeline.New(compileRace(t, sp, initial), cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := &route{sp: sp, sw: sw, dev: faults.NewFlakyDevice(sw), admits: !install}
			r.ctl = NewController(r.dev)
			r.push = func(ctx context.Context, src string) (Delta, error) {
				if install {
					return r.ctl.Install(ctx, compileRace(t, sp, src))
				}
				return r.ctl.Update(ctx, compileRace(t, sp, src))
			}
			f(t, r)
		}
	}
	t.Run("Update", full(false))
	t.Run("Install", full(true))
	t.Run("Churn", func(t *testing.T) {
		sc, live, err := NewSessionController(compiler.NewSession(sp, compiler.Options{}), parseRules(t, initial), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := &route{sp: sp, sw: sc.Switch(), dev: faults.NewFlakyDevice(sc.Switch()), ctl: sc.Controller, admits: true}
		sc.SetDevice(r.dev)
		r.push = func(ctx context.Context, src string) (Delta, error) {
			added, delta, err := sc.Churn(ctx, parseRules(t, src), live)
			if added != nil {
				live = added // the session took the set even if the install then failed
			}
			return delta, err
		}
		f(t, r)
	})
}

// TestProcessConcurrentWithInstall exercises the read-mostly contract
// under the race detector: many goroutines forward packets through the
// switch while the control plane repeatedly compiles and installs new
// (stateless) programs. The atomic program swap must keep every packet on
// one consistent program version with no data races.
func TestProcessConcurrentWithInstall(t *testing.T) {
	forEachRoute(t, pipeline.Config{}, "stock == GOOGL : fwd(1)\n", func(t *testing.T, r *route) {
		prog, sw := r.ctl.Program(), r.sw
		googl := encodeSym(t, r.sp, "GOOGL")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				values := make([]uint64, len(prog.Fields))
				now := time.Duration(0)
				for {
					select {
					case <-stop:
						return
					default:
					}
					// Field layout is identical across the swapped programs
					// (same spec, stateless), so the value vector stays valid
					// whichever version the packet lands on.
					for i, f := range prog.Fields {
						switch f.Name {
						case "add_order.stock":
							values[i] = googl
						case "add_order.price":
							values[i] = seed % 1000
						default:
							values[i] = seed % 500
						}
					}
					res := sw.Process(values, now)
					if !res.Dropped && res.Ports.Len() == 0 {
						t.Error("forwarded packet with no ports")
						return
					}
					now += time.Microsecond
					seed = seed*6364136223846793005 + 1
				}
			}(uint64(g) + 1)
		}

		srcs := []string{
			"stock == GOOGL : fwd(1)\nprice > 50 : fwd(2)\n",
			"stock == GOOGL : fwd(3)\nstock == AAPL : fwd(4)\nshares < 100 : fwd(5)\n",
			"price < 10 : fwd(6)\n",
			"stock == GOOGL : fwd(1)\n",
		}
		for round := 0; round < 25; round++ {
			if _, err := r.push(context.Background(), srcs[round%len(srcs)]); err != nil {
				t.Fatal(err)
			}
		}
		// On a single-CPU host the update storm can finish before the packet
		// goroutines are ever scheduled; give them until the deadline to run.
		for deadline := time.Now().Add(5 * time.Second); sw.PacketsProcessed() == 0; {
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
		}
		close(stop)
		wg.Wait()
		if sw.PacketsProcessed() == 0 {
			t.Fatal("no packets processed during the update storm")
		}
	})
}

func encodeSym(t *testing.T, sp *spec.Spec, sym string) uint64 {
	t.Helper()
	q, err := sp.LookupField("stock")
	if err != nil {
		t.Fatal(err)
	}
	v, err := spec.EncodeSymbol(q, sym)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
