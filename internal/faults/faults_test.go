package faults

import (
	"testing"
	"time"
)

func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Drop: 0.1, Duplicate: 0.05, Reorder: 0.07, Delay: 0.02}
	a, b := NewInjector(plan), NewInjector(plan)
	for i := 0; i < 5000; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, da, db)
		}
	}
	if a.Packets() != 5000 {
		t.Fatalf("packets = %d", a.Packets())
	}
}

func TestInjectorSeedsDiffer(t *testing.T) {
	p1, p2 := Plan{Seed: 1, Drop: 0.5}, Plan{Seed: 2, Drop: 0.5}
	a, b := NewInjector(p1), NewInjector(p2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestInjectorRates(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Drop: 0.2})
	drops := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if in.Next().Drop {
			drops++
		}
	}
	rate := float64(drops) / n
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("drop rate %.3f, want ~0.2", rate)
	}
}

func TestInjectorDropPredicate(t *testing.T) {
	in := NewInjector(Plan{DropIf: func(i uint64) bool { return i%3 == 0 }})
	for i := 0; i < 12; i++ {
		d := in.Next()
		if d.Drop != (i%3 == 0) {
			t.Fatalf("packet %d: drop=%v", i, d.Drop)
		}
	}
}

func TestPlanEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Fatal("zero plan enabled")
	}
	if !(Plan{Drop: 0.1}).Enabled() || !(Plan{DropIf: func(uint64) bool { return false }}).Enabled() {
		t.Fatal("non-zero plan disabled")
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,drop=0.01,dup=0.005,reorder=0.01,delay=0.002:500us")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Drop != 0.01 || p.Duplicate != 0.005 || p.Reorder != 0.01 ||
		p.Delay != 0.002 || p.DelayBy != 500*time.Microsecond {
		t.Fatalf("parsed %+v", p)
	}
	if p, err = ParsePlan(""); err != nil || p.Enabled() {
		t.Fatalf("empty plan: %+v %v", p, err)
	}
	for _, bad := range []string{"drop", "drop=2", "drop=-1", "frob=1", "seed=x", "delay=0.1:nope", "drop=NaN", "dup=nan", "delay=0.5:-5ms"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) succeeded", bad)
		}
	}
}

func TestWrapConnPassthroughWhenDisabled(t *testing.T) {
	// A disabled plan must return the original conn, not a wrapper.
	if c := WrapConn(nil, &Plan{}, nil); c != nil {
		t.Fatalf("disabled wrap returned %T", c)
	}
}
