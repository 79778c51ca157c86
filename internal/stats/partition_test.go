package stats

import (
	"math"
	"reflect"
	"testing"
)

// TestCounterMergeOfPartition pins the epoch contract at the leaf: an
// owner cuts by moving its counter out and installing a fresh one, so
// the epochs partition the observations, and merging them reproduces
// the counter that was never cut.
func TestCounterMergeOfPartition(t *testing.T) {
	whole := NewCounter()
	cur := NewCounter()
	var cuts []*Counter
	feed := func(key string, n int64) {
		whole.Add(key, n)
		cur.Add(key, n)
	}
	feed("a", 3)
	feed("b", 1)
	cuts, cur = append(cuts, cur), NewCounter()
	feed("a", 2)
	feed("c", 5)
	cuts = append(cuts, cur)

	merged := NewCounter()
	for _, c := range cuts {
		merged.Merge(c)
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Errorf("merged cuts %+v != uncut counter %+v", merged, whole)
	}
	// Merge aliases nothing: a source that keeps accumulating must not
	// leak into the aggregate it was folded into, nor the reverse.
	cur.Add("z", 100)
	merged.Add("y", 7)
	if merged.Get("z") != 0 || cur.Get("y") != 0 {
		t.Error("Merge aliased its source")
	}
}

// TestDistMergeOfPartition: same partition property for distributions,
// including the NaN ordering and run-compression invariants.
func TestDistMergeOfPartition(t *testing.T) {
	whole := NewDist()
	cur := NewDist()
	feed := func(vs ...float64) {
		for _, v := range vs {
			whole.Observe(v)
			cur.Observe(v)
		}
	}
	feed(3, 1, 4, 1, 5, math.NaN(), 9, 2.5)
	c1 := cur
	cur = NewDist()
	feed(6, 5, 3, 5, math.Inf(1), -2)
	c2 := cur

	merged := NewDist()
	merged.Merge(c1)
	merged.Merge(c2)
	// Merge aliases nothing: c2 keeps accumulating (its arrays may become
	// merge scratch) without touching merged.
	c2.Observe(1e9)
	if merged.N() != whole.N() {
		t.Fatalf("merged N=%d, want %d", merged.N(), whole.N())
	}
	if merged.Max() == 1e9 {
		t.Error("Merge aliased its source")
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		got, want := merged.Quantile(q), whole.Quantile(q)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("quantile %.2f: merged %v != whole %v", q, got, want)
		}
	}
	got, want := merged.CDF(32), whole.CDF(32)
	if len(got) != len(want) {
		t.Fatalf("CDF lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		sameX := got[i].X == want[i].X || (math.IsNaN(got[i].X) && math.IsNaN(want[i].X))
		if !sameX || got[i].F != want[i].F {
			t.Errorf("CDF point %d: merged %+v != whole %+v", i, got[i], want[i])
		}
	}
}
