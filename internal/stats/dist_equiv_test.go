package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naiveDist is the keep-every-sample reference implementation the compact
// Dist must match bit-for-bit on quantiles and CDFs.
type naiveDist struct {
	samples []float64
	sorted  bool
}

func (d *naiveDist) Observe(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

func (d *naiveDist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

func (d *naiveDist) Quantile(q float64) float64 {
	if len(d.samples) == 0 {
		return 0
	}
	d.ensureSorted()
	if q <= 0 {
		return d.samples[0]
	}
	if q >= 1 {
		return d.samples[len(d.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(d.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return d.samples[idx]
}

func (d *naiveDist) CDF(maxPoints int) []CDFPoint {
	n := len(d.samples)
	if n == 0 {
		return nil
	}
	d.ensureSorted()
	if maxPoints < 2 {
		maxPoints = 2
	}
	if maxPoints > n {
		maxPoints = n
	}
	if maxPoints == 1 {
		return []CDFPoint{{X: d.samples[n-1], F: 1}}
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		rank := i * (n - 1) / (maxPoints - 1)
		pts = append(pts, CDFPoint{X: d.samples[rank], F: float64(rank+1) / float64(n)})
	}
	return pts
}

// sameFloat compares bit-identically except that every NaN matches every
// other NaN (payload bits are not observable through the API) and the two
// zeros match each other (Dist canonicalizes -0 to +0; the sign the naive
// implementation surfaces is an artifact of sort order).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomSample draws from distributions that stress the run-length
// representation: heavy duplication, negatives, zeros, and specials.
func randomSample(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return float64(rng.Intn(8)) // heavy duplicates
	case 2:
		return -float64(rng.Intn(8))
	case 3:
		return math.NaN()
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return rng.NormFloat64() * 1e9
	default:
		return float64(rng.Intn(4096)) // integer-valued, paper-like
	}
}

// TestDistMatchesNaive is the equivalence property test: on random inputs
// (duplicates, NaN, ±Inf) the compact representation must produce exactly
// the quantiles and CDFs of the all-samples implementation.
func TestDistMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(2000)
		compact, naive := NewDist(), &naiveDist{}
		for i := 0; i < n; i++ {
			v := randomSample(rng)
			compact.Observe(v)
			naive.Observe(v)
		}
		if compact.N() != len(naive.samples) {
			t.Fatalf("trial %d: N = %d, want %d", trial, compact.N(), len(naive.samples))
		}
		for _, q := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
			if got, want := compact.Quantile(q), naive.Quantile(q); !sameFloat(got, want) {
				t.Fatalf("trial %d (n=%d): Quantile(%v) = %v, want %v", trial, n, q, got, want)
			}
		}
		for _, pts := range []int{1, 2, 3, 17, 64, 5000} {
			got, want := compact.CDF(pts), naive.CDF(pts)
			if len(got) != len(want) {
				t.Fatalf("trial %d: CDF(%d) has %d points, want %d", trial, pts, len(got), len(want))
			}
			for i := range got {
				if !sameFloat(got[i].X, want[i].X) || got[i].F != want[i].F {
					t.Fatalf("trial %d: CDF(%d)[%d] = %+v, want %+v", trial, pts, i, got[i], want[i])
				}
			}
		}
		// Mean/Sum are not required to be bit-identical (the compact form
		// multiplies instead of repeatedly adding), but must agree within
		// float tolerance, and exactly on NaN-ness.
		gotSum, wantSum := compact.Sum(), sumNaive(naive.samples)
		if math.IsNaN(wantSum) != math.IsNaN(gotSum) {
			t.Fatalf("trial %d: Sum NaN-ness mismatch: %v vs %v", trial, gotSum, wantSum)
		}
		if !math.IsNaN(wantSum) && !withinRel(gotSum, wantSum, 1e-9) {
			t.Fatalf("trial %d: Sum = %v, want ≈ %v", trial, gotSum, wantSum)
		}
	}
}

func sumNaive(samples []float64) float64 {
	var s float64
	for _, v := range samples {
		s += v
	}
	return s
}

func withinRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// TestDistInterleavedQueries exercises the staged-merge path: queries
// interleaved with observations must see every sample observed so far.
func TestDistInterleavedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	compact, naive := NewDist(), &naiveDist{}
	for i := 0; i < 3000; i++ {
		v := float64(rng.Intn(64))
		compact.Observe(v)
		naive.Observe(v)
		if i%97 == 0 {
			if got, want := compact.Median(), naive.Quantile(0.5); !sameFloat(got, want) {
				t.Fatalf("step %d: Median = %v, want %v", i, got, want)
			}
		}
	}
	if got, want := compact.Max(), naive.Quantile(1); !sameFloat(got, want) {
		t.Fatalf("Max = %v, want %v", got, want)
	}
}

// TestDistMergeMatchesNaive is the shard-merge property test: splitting a
// sample stream across any number of Dists and merging them in any
// grouping must be bit-identical to observing everything in one Dist —
// the guarantee the parallel replay's per-worker aggregates rely on.
func TestDistMergeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(3000)
		parts := 1 + rng.Intn(5)
		shards := make([]*Dist, parts)
		for i := range shards {
			shards[i] = NewDist()
		}
		naive := &naiveDist{}
		whole := NewDist()
		for i := 0; i < n; i++ {
			v := randomSample(rng)
			shards[rng.Intn(parts)].Observe(v)
			whole.Observe(v)
			naive.Observe(v)
		}
		// Interleave queries on a shard so merge also exercises the
		// compacted-with-cum state.
		shards[0].Median()
		merged := NewDist()
		for _, s := range shards {
			merged.Merge(s)
		}
		if merged.N() != whole.N() {
			t.Fatalf("trial %d: merged N = %d, want %d", trial, merged.N(), whole.N())
		}
		if merged.Distinct() != whole.Distinct() {
			t.Fatalf("trial %d: merged Distinct = %d, want %d", trial, merged.Distinct(), whole.Distinct())
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
			if got, want := merged.Quantile(q), naive.Quantile(q); !sameFloat(got, want) {
				t.Fatalf("trial %d: merged Quantile(%v) = %v, want %v", trial, q, got, want)
			}
		}
	}
}

// TestDistMergeLeavesSourceUsable pins that a merged-from Dist keeps
// accumulating correctly afterwards (shards outlive report-time merges).
func TestDistMergeLeavesSourceUsable(t *testing.T) {
	src, dst := NewDist(), NewDist()
	for i := 0; i < 100; i++ {
		src.Observe(float64(i % 10))
	}
	dst.Merge(src)
	for i := 0; i < 50; i++ {
		src.Observe(float64(100 + i%5))
	}
	if src.N() != 150 {
		t.Fatalf("source N = %d, want 150", src.N())
	}
	if got := src.Max(); got != 104 {
		t.Fatalf("source Max = %v, want 104", got)
	}
	if dst.N() != 100 {
		t.Fatalf("merged N changed to %d", dst.N())
	}
	if got := dst.Max(); got != 9 {
		t.Fatalf("merged Max = %v, want 9", got)
	}
}

// TestDistCompactsDuplicates pins the representation claim: integer-valued
// observations collapse to their distinct values.
func TestDistCompactsDuplicates(t *testing.T) {
	d := NewDist()
	for i := 0; i < 100000; i++ {
		d.Observe(float64(i % 250))
	}
	if d.N() != 100000 {
		t.Fatalf("N = %d", d.N())
	}
	if got := d.Distinct(); got != 250 {
		t.Fatalf("Distinct = %d, want 250", got)
	}
	if got := d.Quantile(0.5); got != 124 {
		t.Fatalf("Median = %v, want 124", got)
	}
}
