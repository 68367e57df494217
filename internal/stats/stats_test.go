package stats

import (
	"math/rand"
	"strings"
	"testing"
	"time"
)

func fill(vals ...time.Duration) *Dist {
	d := &Dist{}
	for _, v := range vals {
		d.Add(v)
	}
	return d
}

func TestPercentiles(t *testing.T) {
	d := &Dist{}
	for i := 100; i >= 1; i-- { // insert descending to exercise sorting
		d.Add(time.Duration(i) * time.Microsecond)
	}
	if d.Count() != 100 {
		t.Fatalf("count = %d", d.Count())
	}
	cases := map[float64]time.Duration{
		0:   1 * time.Microsecond,
		1:   1 * time.Microsecond,
		50:  50 * time.Microsecond,
		99:  99 * time.Microsecond,
		100: 100 * time.Microsecond,
	}
	for p, want := range cases {
		if got := d.Percentile(p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if d.Min() != time.Microsecond || d.Max() != 100*time.Microsecond {
		t.Fatalf("min/max wrong: %v %v", d.Min(), d.Max())
	}
	if d.Median() != 50*time.Microsecond {
		t.Fatalf("median = %v", d.Median())
	}
	if d.Mean() != 50500*time.Nanosecond {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestPercentileEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Dist{}).Percentile(50)
}

func TestFractionBelow(t *testing.T) {
	d := fill(1*time.Microsecond, 2*time.Microsecond, 3*time.Microsecond, 4*time.Microsecond)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 0}, {time.Microsecond, 0.25}, {2500 * time.Nanosecond, 0.5}, {4 * time.Microsecond, 1},
		{time.Second, 1},
	}
	for _, c := range cases {
		if got := d.FractionBelow(c.at); got != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if got := (&Dist{}).FractionBelow(time.Second); got != 0 {
		t.Fatalf("empty FractionBelow = %v", got)
	}
}

func TestCDFMonotonic(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	d := &Dist{}
	for i := 0; i < 1000; i++ {
		d.Add(time.Duration(r.Intn(1_000_000)))
	}
	pts := d.CDF(50)
	if len(pts) != 50 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].P <= pts[i-1].P {
			t.Fatalf("CDF not monotonic at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[len(pts)-1].P != 1.0 {
		t.Fatalf("CDF should end at 1.0, got %v", pts[len(pts)-1].P)
	}
	if (&Dist{}).CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestCDFConsistentWithFractionBelow(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := &Dist{}
	for i := 0; i < 500; i++ {
		d.Add(time.Duration(r.Intn(10000)))
	}
	for _, pt := range d.CDF(20) {
		if got := d.FractionBelow(pt.X); got < pt.P-0.01 {
			t.Fatalf("FractionBelow(%v)=%v < CDF P=%v", pt.X, got, pt.P)
		}
	}
}

func TestSummaryAndTable(t *testing.T) {
	c := fill(time.Microsecond, 2*time.Microsecond)
	b := fill(10*time.Microsecond, 300*time.Microsecond)
	if s := (&Dist{}).Summary(); s != "n=0" {
		t.Fatalf("empty summary = %q", s)
	}
	tab := Table("fig7a", c, b, []time.Duration{20 * time.Microsecond, 300 * time.Microsecond})
	for _, want := range []string{"fig7a", "camus", "baseline", "20µs", "100.00%", "50.00%"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
}
