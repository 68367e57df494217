package controlplane

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/faults"
	"camus/internal/lang"
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

func parseRules(t *testing.T, src string) []lang.Rule {
	t.Helper()
	rules, err := lang.ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// route is one way into Controller.Update, opened on a fresh switch that
// runs an initial rule set behind a fault-injecting device. push replaces
// the installed rule set with src that way.
type route struct {
	sp   *spec.Spec
	sw   *pipeline.Switch
	dev  *faults.FlakyDevice
	ctl  *Controller
	push func(ctx context.Context, src string) (Delta, error)
}

// syncUpdate is the incremental route: the session Syncs to rules, and its
// recompile goes in through Controller.Update.
func syncUpdate(ctx context.Context, ctl *Controller, sess *compiler.Session, rules []lang.Rule) (Delta, error) {
	if err := sess.Sync(context.Background(), compiler.Source{Rules: rules}); err != nil {
		return Delta{}, err
	}
	pass, err := sess.RecompilePass()
	if err != nil {
		return Delta{}, err
	}
	return ctl.Update(ctx, pass.Program())
}

// syncSwitch starts a switch on a new session's program of initial rules,
// behind a device that counts writes and injects faults, and its
// controller.
func syncSwitch(t *testing.T, sp *spec.Spec, initial []lang.Rule, cfg pipeline.Config) (*compiler.Session, *pipeline.Switch, *faults.FlakyDevice, *Controller) {
	t.Helper()
	sess := compiler.NewSession(sp, compiler.Options{})
	if err := sess.Sync(context.Background(), compiler.Source{Rules: initial}); err != nil {
		t.Fatal(err)
	}
	prog, err := sess.Recompile()
	if err != nil {
		t.Fatal(err)
	}
	sw, err := pipeline.New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := faults.NewFlakyDevice(sw)
	return sess, sw, dev, NewController(dev)
}

// forEachRoute runs f against both ways into Controller.Update — a
// program compiled whole, and the incremental route, Session.Sync then
// Controller.Update (subtest Churn) — so the rollback, cancel, admission
// and race suites exercise the one install function through both.
func forEachRoute(t *testing.T, cfg pipeline.Config, initial string, f func(t *testing.T, r *route)) {
	sp, err := spec.Parse(raceSpecSrc)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("Update", func(t *testing.T) {
		sw, err := pipeline.New(compileRace(t, sp, initial), cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := &route{sp: sp, sw: sw, dev: faults.NewFlakyDevice(sw)}
		r.ctl = NewController(r.dev)
		r.push = func(ctx context.Context, src string) (Delta, error) {
			return r.ctl.Update(ctx, compileRace(t, sp, src))
		}
		f(t, r)
	})
	t.Run("Churn", func(t *testing.T) {
		sess, sw, dev, ctl := syncSwitch(t, sp, parseRules(t, initial), cfg)
		r := &route{sp: sp, sw: sw, dev: dev, ctl: ctl}
		r.push = func(ctx context.Context, src string) (Delta, error) {
			return syncUpdate(ctx, ctl, sess, parseRules(t, src))
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
