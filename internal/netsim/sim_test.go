package netsim

import (
	"testing"
	"time"
)

func TestSimRunsEventsInOrder(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(30*time.Nanosecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Nanosecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Nanosecond, func() { order = append(order, 2) })
	end := s.Run()
	if end != 30*time.Nanosecond {
		t.Fatalf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestSimSameTimeFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Microsecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSimNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []time.Duration
	s.Schedule(time.Microsecond, func() {
		times = append(times, s.Now())
		s.After(time.Microsecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != time.Microsecond || times[1] != 2*time.Microsecond {
		t.Fatalf("times = %v", times)
	}
}

func TestSimPastEventClamped(t *testing.T) {
	s := NewSim()
	var ran bool
	s.Schedule(10*time.Microsecond, func() {
		s.Schedule(time.Microsecond, func() { ran = true }) // in the past
	})
	s.Run()
	if !ran {
		t.Fatal("past-scheduled event did not run")
	}
	if s.Now() != 10*time.Microsecond {
		t.Fatalf("clamping broke the clock: %v", s.Now())
	}
}

func TestServerQueuesFIFO(t *testing.T) {
	s := NewSim()
	sv := NewServer(s)
	var done []time.Duration
	s.Schedule(0, func() {
		// Three 10µs jobs submitted back-to-back must finish at 10/20/30µs.
		for i := 0; i < 3; i++ {
			sv.Submit(10*time.Microsecond, func() { done = append(done, s.Now()) })
		}
	})
	s.Run()
	want := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if sv.MaxQueue() != 2 {
		t.Fatalf("max queue = %d, want 2", sv.MaxQueue())
	}
}

func TestServerIdleBetweenJobs(t *testing.T) {
	s := NewSim()
	sv := NewServer(s)
	var done []time.Duration
	s.Schedule(0, func() { sv.Submit(time.Microsecond, func() { done = append(done, s.Now()) }) })
	s.Schedule(10*time.Microsecond, func() { sv.Submit(time.Microsecond, func() { done = append(done, s.Now()) }) })
	s.Run()
	if done[0] != time.Microsecond || done[1] != 11*time.Microsecond {
		t.Fatalf("done = %v", done)
	}
	if sv.Backlog() != 0 {
		t.Fatalf("backlog = %v", sv.Backlog())
	}
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	s := NewSim()
	// 1 Gb/s: 1000 bytes = 8µs serialization; 2µs propagation.
	l := NewLink(s, 1, 2*time.Microsecond, nil)
	if got := l.SerializationDelay(1000); got != 8*time.Microsecond {
		t.Fatalf("serialization = %v", got)
	}
	var delivered []time.Duration
	s.Schedule(0, func() {
		l.carry(1000, func() { delivered = append(delivered, s.Now()) })
		l.carry(1000, func() { delivered = append(delivered, s.Now()) })
	})
	s.Run()
	// First: 8µs wire + 2µs prop = 10µs. Second queues behind: 16+2 = 18µs.
	if len(delivered) != 2 || delivered[0] != 10*time.Microsecond || delivered[1] != 18*time.Microsecond {
		t.Fatalf("delivered = %v", delivered)
	}
}

func TestQueueingLatencyEmergesFromOverload(t *testing.T) {
	// A server at 50% utilization has no backlog; at 200% the last job's
	// completion reflects the accumulated queue — the mechanism behind
	// the baseline's Figure-7 tail.
	run := func(interArrival time.Duration) time.Duration {
		s := NewSim()
		sv := NewServer(s)
		var last time.Duration
		for i := 0; i < 100; i++ {
			at := time.Duration(i) * interArrival
			s.Schedule(at, func() {
				sv.Submit(time.Microsecond, func() { last = s.Now() })
			})
		}
		s.Run()
		return last
	}
	relaxed := run(2 * time.Microsecond)     // 50% load
	overloaded := run(500 * time.Nanosecond) // 200% load
	if relaxed != 99*2*time.Microsecond+time.Microsecond {
		t.Fatalf("relaxed completion = %v", relaxed)
	}
	if overloaded != 100*time.Microsecond {
		t.Fatalf("overloaded completion = %v (work conservation broken)", overloaded)
	}
}
