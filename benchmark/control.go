package main

import (
	"math/rand"
	"runtime"
	"strings"
	"time"

	"camus/internal/compiler"
	"camus/internal/lang"
	"camus/internal/telemetry"
)

// An operation repeats until it has both a minimum of samples and this
// much measured time, so that a 2 ms compile of a few hundred rules and a
// 0.8 s compile of 20,000 each give a median worth comparing.
const (
	minOpTime = 3 * time.Second
	maxOpReps = 200
	gcAbove   = 10 * time.Millisecond
)

func enough(samples []float64, min int, opTime time.Duration) bool {
	var sum float64
	for _, s := range samples {
		sum += s
	}
	return len(samples) >= maxOpReps || (len(samples) >= min && sum >= opTime.Seconds())
}

// settle puts the heap in the same state before every operation big enough
// to care: how long a compile takes depends on how much of its heap is
// already mapped and on where in its cycle the collector is, and without
// this the same compile drifts by a third over a process's first minute.
func settle(last []float64) {
	if len(last) == 0 || last[len(last)-1] >= gcAbove.Seconds() {
		runtime.GC()
	}
}

// controlOut is what the control-plane phase measured, in seconds. All but
// update is filled by traced runs only.
type controlOut struct {
	compile, update    []float64
	localized, uniform []float64 // churn through a compiler.Session
	add, remove        []float64 // Session.AddRules / RemoveRules inside the churn events
	memoHitRatio       float64
	arenaNodes         int
}

// control is the control-plane phase. Every run replaces the live switch's
// subscriptions, there and back, while a light probe feed keeps its tables
// in use: every probe message sent meanwhile is judged by the oracle. A
// traced run also times it: cold compiles of the rule source first, the
// updates repeated for opTime, and churn through a compiler.Session last.
func (h *harness) control(seed int64, traced bool, opTime time.Duration, tr *tracer, parent int) (*controlOut, error) {
	out := &controlOut{}
	sp, err := h.w.spec()
	if err != nil {
		return nil, err
	}
	for traced && !enough(out.compile, 3, opTime) {
		settle(out.compile)
		var cerr error
		d := tr.timed("compile-cold", parent, func() {
			_, cerr = compiler.CompileSource(sp, h.in.sets[0].src, compiler.Options{})
		})
		if cerr != nil {
			return nil, cerr
		}
		out.compile = append(out.compile, d.Seconds())
	}

	stop := make(chan struct{})
	barriers := make(chan chan error)
	feed := make(chan error, 1)
	go func() {
		_, err := h.paced(phaseControl, h.w.control, 0, stop, barriers)
		feed <- err
	}()
	barrier := func() error {
		reply := make(chan error)
		select {
		case barriers <- reply:
			return <-reply
		case err := <-feed:
			feed <- err
			return err
		}
	}
	if !traced {
		opTime = 0
	}
	err = h.liveUpdates(out, opTime, barrier, tr, parent)
	close(stop)
	if ferr := <-feed; err == nil {
		err = ferr
	}
	if err == nil && traced {
		err = h.sessionChurn(out, seed, opTime, tr, parent)
	}
	return out, err
}

// liveUpdates replaces the running switch's subscriptions, alternating
// between the two churned sets. A message sent between the barriers may be
// judged by the outgoing or the incoming set; the barriers make sure no
// other message can be.
func (h *harness) liveUpdates(out *controlOut, opTime time.Duration, barrier func() error, tr *tracer, parent int) error {
	cur := 0
	for n := 0; !enough(out.update, 2, opTime); n++ {
		next := 1 + n%2
		settle(out.update)
		h.setJudge(cur, next)
		if err := barrier(); err != nil {
			return err
		}
		var uerr error
		d := tr.timed("update-live", parent, func() { uerr = h.sw.SetSubscriptions(h.in.sets[next].src) })
		if uerr != nil {
			return uerr
		}
		if err := barrier(); err != nil {
			return err
		}
		h.setJudge(next, next)
		out.update = append(out.update, d.Seconds())
		cur = next
	}
	return nil
}

// sessionChurn takes localized and uniform 1% churn through a
// compiler.Session holding the workload's rules: RemoveRules, AddRules and
// Recompile per event, two localized events and one uniform per round.
func (h *harness) sessionChurn(out *controlOut, seed int64, opTime time.Duration, tr *tracer, parent int) error {
	sp, err := h.w.spec()
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	sess := compiler.NewSession(sp, compiler.Options{Telemetry: reg})
	rules, err := lang.ParseRules(h.in.sets[0].src)
	if err != nil {
		return err
	}
	handles, err := sess.AddRules(rules)
	if err != nil {
		return err
	}
	if _, err := sess.Recompile(); err != nil {
		return err
	}
	table := append([]rule(nil), h.in.sets[0].table...)
	handles = handles[len(handles)-len(table):] // the table's rules are the source's last
	r := rand.New(rand.NewSource(seed + 1))
	for round := 0; !enough(out.uniform, 3, opTime); round++ {
		for i, kind := range []churnKind{localized, localized, uniform} {
			k, samples := round, &out.uniform
			if kind == localized {
				k, samples = round*2+i, &out.localized
			}
			victims := h.w.churn(table, kind, k, r)
			var text strings.Builder
			old := make([]int, len(victims))
			for j, v := range victims {
				old[j] = handles[v]
				text.WriteString(table[v].String())
				text.WriteByte('\n')
			}
			fresh, err := lang.ParseRules(text.String())
			if err != nil {
				return err
			}
			settle(*samples)
			var added []int
			var opErr error
			var rm, add time.Duration
			d := tr.timed("session-churn", parent, func() {
				start := time.Now()
				if opErr = sess.RemoveRules(old...); opErr != nil {
					return
				}
				rm = time.Since(start)
				if added, opErr = sess.AddRules(fresh); opErr != nil {
					return
				}
				add = time.Since(start) - rm
				_, opErr = sess.Recompile()
			})
			if opErr != nil {
				return opErr
			}
			for j, v := range victims {
				handles[v] = added[j]
			}
			out.remove = append(out.remove, rm.Seconds())
			out.add = append(out.add, add.Seconds())
			*samples = append(*samples, d.Seconds())
		}
	}
	hits := float64(reg.Counter("camus_compiler_memo_hits_total").Load())
	if misses := float64(reg.Counter("camus_compiler_memo_misses_total").Load()); hits+misses > 0 {
		out.memoHitRatio = hits / (hits + misses)
	}
	out.arenaNodes = sess.ArenaNodes()
	return nil
}
