package stats

import (
	"math"
	"testing"
)

func TestDistRunsRoundTrip(t *testing.T) {
	d := NewDist()
	for _, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, math.NaN(), math.Inf(1)} {
		d.Observe(v)
	}
	vals, counts, nan := DistRuns(d)
	got := NewDist()
	if err := MergeRuns(got, vals, counts, nan); err != nil {
		t.Fatalf("MergeRuns: %v", err)
	}
	if got.N() != d.N() {
		t.Fatalf("N: got %d want %d", got.N(), d.N())
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		a, b := d.Quantile(q), got.Quantile(q)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Errorf("Quantile(%v): got %v want %v", q, b, a)
		}
	}
	// The rebuilt Dist must keep merging exactly.
	m := NewDist()
	m.Observe(7)
	m.Merge(got)
	if m.N() != d.N()+1 {
		t.Fatalf("merge N: got %d want %d", m.N(), d.N()+1)
	}
}

func TestDistRunsEmpty(t *testing.T) {
	vals, counts, nan := DistRuns(NewDist())
	if len(vals) != 0 || len(counts) != 0 || nan != 0 {
		t.Fatalf("empty dist exported %d/%d/%d", len(vals), len(counts), nan)
	}
	d := NewDist()
	if err := MergeRuns(d, nil, nil, 0); err != nil {
		t.Fatalf("MergeRuns(empty): %v", err)
	}
	if d.N() != 0 {
		t.Fatalf("empty rebuild has %d samples", d.N())
	}
}

func TestDistFromRunsRejectsHostileInput(t *testing.T) {
	cases := []struct {
		name   string
		vals   []float64
		counts []int64
		nan    int64
	}{
		{"length mismatch", []float64{1}, []int64{1, 2}, 0},
		{"negative nan", nil, nil, -1},
		{"unsorted", []float64{2, 1}, []int64{1, 1}, 0},
		{"duplicate value", []float64{1, 1}, []int64{1, 1}, 0},
		{"zero count", []float64{1}, []int64{0}, 0},
		{"negative count", []float64{1}, []int64{-5}, 0},
		{"nan in runs", []float64{math.NaN()}, []int64{1}, 0},
		{"count overflow", []float64{1, 2}, []int64{math.MaxInt64, 1}, 0},
	}
	for _, tc := range cases {
		if err := MergeRuns(nil, tc.vals, tc.counts, tc.nan); err == nil {
			t.Errorf("%s: accepted with no destination", tc.name)
		}
		d := NewDist()
		d.Observe(1)
		if err := MergeRuns(d, tc.vals, tc.counts, tc.nan); err == nil {
			t.Errorf("%s: accepted into a Dist", tc.name)
		}
		if d.N() != 1 || d.Distinct() != 1 {
			t.Errorf("%s: refused runs changed the destination: N %d, Distinct %d", tc.name, d.N(), d.Distinct())
		}
	}
}
