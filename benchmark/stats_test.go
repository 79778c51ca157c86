package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, so report() refuses it")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns: the driver computes run-to-run spread with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 40}, 10, 20, 40},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v (%v), want %v %v %v", tc.xs, q1, q2, q3, err, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample must be refused")
	}
}

func TestSpread(t *testing.T) {
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(s, 1) {
		t.Errorf("spread = %v (%v), want (8.25-2.75)/5.5 = 1", s, err)
	}
	if _, err := spread([]float64{0, 0, 0}); err == nil {
		t.Error("spread around a zero median must be refused")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p90 of 100 samples has exactly ten beyond it: the highest allowed.
	if v, err := percentile(xs, 90); err != nil || !near(v, 90.1) {
		t.Errorf("p90 = %v (%v), want 90.1", v, err)
	}
	if _, err := percentile(xs, 91); err == nil {
		t.Error("p91 of 100 samples has nine beyond it and must be refused")
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples must be refused")
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 100 samples must be refused")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(c float64) []float64 {
		return []float64{c * 0.99, c, c * 1.01, c, c * 0.995, c * 1.005, c, c, c * 1.002, c * 0.998}
	}
	noisy := []float64{50, 80, 100, 120, 150, 100, 60, 140, 100, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"latency up 20%", steady(100), steady(120), false, "worse"},
		{"latency up 5%", steady(100), steady(105), false, "within"},
		{"latency down", steady(100), steady(60), false, "within"},
		{"throughput down 20%", steady(100), steady(80), true, "worse"},
		{"throughput up", steady(100), steady(130), true, "within"},
		{"spread wider than bound", noisy, steady(100), false, "unresolved"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.higherBetter, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestGroupedTail(t *testing.T) {
	// Ten batches of 50 samples 1..50; the last two batches are an outlier
	// stretch ten times slower. p90 needs 100 samples: groups of two
	// batches, five groups, the last of them slow.
	var xs []float64
	var ends []int
	for b := 0; b < 10; b++ {
		for i := 1; i <= 50; i++ {
			v := float64(i)
			if b >= 8 {
				v *= 10
			}
			xs = append(xs, v)
		}
		ends = append(ends, len(xs))
	}
	got, err := groupedTail(xs, ends, 90)
	if err != nil {
		t.Fatal(err)
	}
	// A normal group is 1..50 twice: its p90 interpolates between the
	// 90th and 91st of 100 sorted samples, both 45 and 46.
	want, _ := percentile(xs[:100], 90)
	if !near(got, want) || got > 50 {
		t.Errorf("grouped p90 = %v, want the typical group's %v, untouched by the slow stretch", got, want)
	}
	if pooled, _ := percentile(xs, 90); pooled <= 50 {
		t.Errorf("pooled p90 = %v: the test's slow stretch should own it", pooled)
	}
	if _, err := groupedTail(xs[:60], []int{50, 60}, 90); err == nil {
		t.Error("60 samples cannot support a p90 and must be refused")
	}
}
