package stats

import (
	"math"
	"slices"
	"testing"
)

// fuzzVals are the sample values FuzzDist draws from: NaN, both zeros,
// both infinities, the smallest and huge magnitudes (not so huge that a
// few thousand of them overflow a sum), and integers besides.
var fuzzVals = []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, 1e300, -1e300, 0.5}

// fuzzVal maps a program byte to a sample: a special value, or an
// integer in [-60, 186], so runs share values often.
func fuzzVal(x byte) float64 {
	if int(x) < len(fuzzVals) {
		return fuzzVals[x]
	}
	return float64(int(x) - 69)
}

// fuzzMaxSamples caps each Dist's sample count: merges that would pass
// it are skipped, so repeated doubling cannot blow a program up.
const fuzzMaxSamples = 1 << 13

// FuzzDist runs a program of observations, merges, cuts, run round
// trips and queries over two Dists and a third that takes the cuts,
// against keep-every-sample references. The merges cover a source into
// a fresh Dist, small into large, a source wholly above the receiver's
// maximum and one of the receiver's own size. After every step each
// Dist's N, Distinct, Quantile, CDF and Sum's NaN-ness agree with its
// reference, read from a deep copy so the step's staged samples and
// staged runs carry into the next; the query step reads the Dists
// themselves.
func FuzzDist(f *testing.F) {
	f.Add([]byte{0, 9, 0, 0, 10, 0, 0, 0, 0, 2, 0, 0, 9, 0, 0})
	f.Add([]byte{1, 20, 40, 1, 3, 41, 2, 0, 0, 5, 10, 30, 6, 1, 0, 9, 0, 0, 3, 0, 0})
	f.Add([]byte{1, 100, 200, 4, 0, 0, 1, 11, 2, 7, 0, 0, 0, 2, 0, 8, 0, 0, 3, 0, 0, 9, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 0, 1, 0, 6, 0, 5, 3, 7, 2, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		a, b, cuts := &Dist{}, &Dist{}, &Dist{}
		ra, rb, rcuts := &naiveDist{}, &naiveDist{}, &naiveDist{}
		for step := 0; len(prog) >= 3; step++ {
			op, x, y := prog[0]%10, prog[1], prog[2]
			prog = prog[3:]
			// d is the Dist an observation targets.
			d, rd := a, ra
			if y&1 == 1 {
				d, rd = b, rb
			}
			switch op {
			case 0:
				d.Observe(fuzzVal(x))
				rd.Observe(fuzzVal(x))
			case 1:
				// A burst long enough to fill the stage more than once.
				for i := 0; i < 32+2*int(y) && len(rd.samples) < fuzzMaxSamples; i++ {
					v := fuzzVal(x + byte(i%7))
					d.Observe(v)
					rd.Observe(v)
				}
			case 2:
				if len(ra.samples)+len(rb.samples) <= fuzzMaxSamples {
					a.Merge(b)
					ra.absorb(rb)
				}
			case 3:
				if len(ra.samples)+len(rb.samples) <= fuzzMaxSamples {
					b.Merge(a)
					rb.absorb(ra)
				}
			case 4:
				// Into a fresh Dist, which takes d's place.
				fresh := &Dist{}
				fresh.Merge(d)
				if y&1 == 1 {
					b = fresh
				} else {
					a = fresh
				}
			case 5:
				// A source wholly above a's largest finite sample.
				top := 0.0
				for _, v := range ra.samples {
					if !math.IsInf(v, 0) && v > top {
						top = v
					}
				}
				src := &Dist{}
				for i := 0; i <= int(y) && len(ra.samples) < fuzzMaxSamples; i++ {
					v := top + 1 + float64(i%(1+int(x%16)))
					src.Observe(v)
					ra.Observe(v)
				}
				a.Merge(src)
			case 6:
				// A source of a's own size, shifted by 0-3.
				if 2*len(ra.samples) > fuzzMaxSamples {
					break
				}
				src := &Dist{}
				for _, v := range slices.Clone(ra.samples) {
					v += float64(x % 4)
					src.Observe(v)
					ra.Observe(v)
				}
				a.Merge(src)
			case 7:
				// Cut a: move it out whole and fold it into cuts. The moved
				// Dist reads as a did; a starts again from zero.
				moved := *a
				*a = Dist{}
				checkDist(t, step, "moved", &moved, ra)
				cuts.Merge(&moved)
				rcuts.absorb(ra)
				ra = &naiveDist{}
			case 8:
				// a's runs to a fresh Dist and into b.
				vals, counts, nan := DistRuns(a)
				rebuilt := &Dist{}
				if err := MergeRuns(rebuilt, vals, counts, nan); err != nil {
					t.Fatalf("step %d: MergeRuns of DistRuns: %v", step, err)
				}
				checkDist(t, step, "rebuilt", rebuilt, ra)
				if len(ra.samples)+len(rb.samples) <= fuzzMaxSamples {
					if err := MergeRuns(b, vals, counts, nan); err != nil {
						t.Fatalf("step %d: MergeRuns into b: %v", step, err)
					}
					rb.absorb(ra)
				}
			case 9:
				checkDist(t, step, "a itself", a, ra)
				checkDist(t, step, "b itself", b, rb)
			}
			checkDist(t, step, "a", cloneDist(a), ra)
			checkDist(t, step, "b", cloneDist(b), rb)
			checkDist(t, step, "cuts", cloneDist(cuts), rcuts)
		}
	})
}

// absorb adds o's samples to r, as Merge does.
func (r *naiveDist) absorb(o *naiveDist) {
	r.samples = append(r.samples, o.samples...)
	r.sorted = false
}

// cloneDist copies every buffer of d, so reading the copy compacts
// nothing of d.
func cloneDist(d *Dist) *Dist {
	return &Dist{
		vals: slices.Clone(d.vals), counts: slices.Clone(d.counts), cum: slices.Clone(d.cum),
		staged:      slices.Clone(d.staged),
		pendingVals: slices.Clone(d.pendingVals), pendingCounts: slices.Clone(d.pendingCounts),
		pendingEnds: slices.Clone(d.pendingEnds),
		nan:         d.nan, n: d.n,
	}
}

// checkDist holds d to the reference r under every query.
func checkDist(t *testing.T, step int, name string, d *Dist, r *naiveDist) {
	t.Helper()
	if d.N() != len(r.samples) {
		t.Fatalf("step %d: %s: N = %d, reference %d", step, name, d.N(), len(r.samples))
	}
	r.ensureSorted()
	distinct := 0
	for i, v := range r.samples {
		if !math.IsNaN(v) && (i == 0 || math.IsNaN(r.samples[i-1]) || r.samples[i-1] != v) {
			distinct++
		}
	}
	if got := d.Distinct(); got != distinct {
		t.Fatalf("step %d: %s: Distinct = %d, reference %d", step, name, got, distinct)
	}
	for _, q := range []float64{-1, 0, 0.01, 0.25, 0.5, 0.75, 0.99, 1, 2} {
		if got, want := d.Quantile(q), r.Quantile(q); !sameFloat(got, want) {
			t.Fatalf("step %d: %s: Quantile(%v) = %v, reference %v", step, name, q, got, want)
		}
	}
	for _, pts := range []int{1, 2, 5, 64} {
		got, want := d.CDF(pts), r.CDF(pts)
		if len(got) != len(want) {
			t.Fatalf("step %d: %s: CDF(%d) has %d points, reference %d", step, name, pts, len(got), len(want))
		}
		for i := range got {
			if !sameFloat(got[i].X, want[i].X) || got[i].F != want[i].F {
				t.Fatalf("step %d: %s: CDF(%d)[%d] = %+v, reference %+v", step, name, pts, i, got[i], want[i])
			}
		}
	}
	if got, want := d.Sum(), sumNaive(r.samples); math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("step %d: %s: Sum = %v, reference %v", step, name, got, want)
	}
}
