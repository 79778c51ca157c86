package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	if c.Total() != 0 || c.Len() != 0 {
		t.Fatalf("empty counter: total=%d len=%d", c.Total(), c.Len())
	}
	c.Inc("tcp")
	c.Add("udp", 3)
	c.Add("tcp", 1)
	if got := c.Get("tcp"); got != 2 {
		t.Errorf("tcp = %d, want 2", got)
	}
	if got := c.Get("udp"); got != 3 {
		t.Errorf("udp = %d, want 3", got)
	}
	if got := c.Get("icmp"); got != 0 {
		t.Errorf("absent key = %d, want 0", got)
	}
	if got := c.Total(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
	if got := c.Fraction("udp"); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("fraction(udp) = %v, want 0.6", got)
	}
}

func TestCounterMerge(t *testing.T) {
	a, b := NewCounter(), NewCounter()
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 || a.Total() != 6 {
		t.Errorf("after merge: x=%d y=%d total=%d", a.Get("x"), a.Get("y"), a.Total())
	}
}

func TestCounterFractionEmpty(t *testing.T) {
	if got := NewCounter().Fraction("anything"); got != 0 {
		t.Errorf("empty fraction = %v, want 0", got)
	}
}

func TestDistQuantiles(t *testing.T) {
	d := NewDist()
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.25, 25}, {0.5, 50}, {0.75, 75}, {1, 100},
	}
	for _, c := range cases {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if d.Median() != 50 {
		t.Errorf("median = %v", d.Median())
	}
	if d.Min() != 1 || d.Max() != 100 {
		t.Errorf("min/max = %v/%v", d.Min(), d.Max())
	}
	if got := d.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", got)
	}
	if got := d.Sum(); got != 5050 {
		t.Errorf("sum = %v, want 5050", got)
	}
}

func TestDistEmpty(t *testing.T) {
	d := NewDist()
	if d.Quantile(0.5) != 0 || d.Mean() != 0 {
		t.Error("empty dist should return zeros")
	}
	if d.CDF(10) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestDistCDFSeries(t *testing.T) {
	d := NewDist()
	for i := 0; i < 1000; i++ {
		d.Observe(float64(i))
	}
	pts := d.CDF(11)
	if len(pts) != 11 {
		t.Fatalf("got %d points, want 11", len(pts))
	}
	if pts[0].X != 0 {
		t.Errorf("first point X = %v, want 0 (min)", pts[0].X)
	}
	if pts[len(pts)-1].X != 999 || pts[len(pts)-1].F != 1 {
		t.Errorf("last point = %+v, want X=999 F=1", pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Fatalf("CDF not monotone at %d: %+v then %+v", i, pts[i-1], pts[i])
		}
	}
}

func TestDistCDFFewSamples(t *testing.T) {
	d := NewDist()
	d.Observe(5)
	pts := d.CDF(100)
	if len(pts) != 1 && len(pts) != 2 {
		t.Fatalf("single-sample CDF has %d points", len(pts))
	}
	if pts[len(pts)-1].F != 1 {
		t.Errorf("last F = %v, want 1", pts[len(pts)-1].F)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDist()
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			d.Observe(v)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := d.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return d.Quantile(0) == d.Min() && d.Quantile(1) == d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPctFormatting(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0%"},
		{0.0001, "0.0%"},
		{0.009, "0.9%"},
		{0.015, "1.5%"},
		{0.45, "45%"},
		{0.999, "100%"},
	}
	for _, c := range cases {
		if got := Pct(c.in); got != c.want {
			t.Errorf("Pct(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBytesFormatting(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{500, "500B"},
		{152_000_000, "152MB"},
		{200_000, "0.2MB"},
		{13_120_000_000, "13.12GB"},
	}
	for _, c := range cases {
		if got := Bytes(c.in); got != c.want {
			t.Errorf("Bytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table X", "proto", "D0", "D1")
	tab.AddRow("IP", "99%", "97%")
	tab.AddRow("ARP") // short row padded
	out := tab.String()
	if !strings.Contains(out, "Table X") || !strings.Contains(out, "IP") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestDistInterleavedObserveQuantile(t *testing.T) {
	// Observing after a quantile query must re-sort.
	d := NewDist()
	d.Observe(10)
	_ = d.Median()
	d.Observe(1)
	if d.Min() != 1 {
		t.Errorf("min after interleaved observe = %v, want 1", d.Min())
	}
}

func BenchmarkDistQuantile(b *testing.B) {
	d := NewDist()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		d.Observe(rng.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Quantile(0.95)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter()
	for i := 0; i < b.N; i++ {
		c.Inc("tcp")
	}
}
