package controlplane

import (
	"context"
	"errors"
	"testing"
	"time"

	"camus/internal/pipeline"
)

// TestCancelInterruptsBackoff: a canceled context must cut the commit
// retry schedule short mid-backoff — with an hour-long configured backoff
// the install still returns within milliseconds of cancellation, with the
// device rolled back to the prior program.
func TestCancelInterruptsBackoff(t *testing.T) {
	forEachRoute(t, pipeline.Config{}, "stock == GOOGL : fwd(1)\n", func(t *testing.T, r *route) {
		// An hour of backoff and plenty of retries: without context
		// propagation through the wait this test would hang.
		r.ctl.Policy.Backoff = time.Hour
		r.ctl.Policy.MaxBackoff = time.Hour
		r.ctl.Policy.MaxRetries = 10

		vecs := probeVectors(t, r.sp, r.ctl.Program())
		before := snapshot(r.sw, vecs)
		oldProg := r.ctl.Program()

		// The device wedges: the first write fails transiently, so commit
		// enters its backoff sleep, which is where cancellation must land.
		r.dev.FailOn(1, true)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()

		start := time.Now()
		_, err := r.push(ctx, "stock == GOOGL : fwd(1)\nprice > 10 : fwd(7)\n")
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("canceled install succeeded")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("install error does not carry the cancellation: %v", err)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("canceled install took %s — backoff not interrupted", elapsed)
		}
		// The failed attempt plus the compensating rollback write.
		if r.dev.Calls() != 2 {
			t.Fatalf("device saw %d calls, want 2 (failed install + rollback)", r.dev.Calls())
		}
		if got := snapshot(r.sw, vecs); got != before {
			t.Fatalf("device not rolled back after canceled install:\n got %s\nwant %s", got, before)
		}
		if r.ctl.Program() != oldProg {
			t.Fatal("controller advanced past a canceled install")
		}
	})
}
