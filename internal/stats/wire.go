package stats

import (
	"fmt"
	"math"
)

// DistRuns exports d's canonical form — the sorted distinct values and
// their multiplicities, plus the NaN count — for serialization. The
// runs are the distribution's entire semantic content (staging and
// scratch buffers are performance artifacts), so a Dist rebuilt from
// them is equivalent under every query and under Merge. The returned
// slices alias d's internal arrays: copy before mutating, and do not
// Observe into d while holding them.
func DistRuns(d *Dist) (vals []float64, counts []int64, nan int64) {
	d.compact()
	d.foldPending()
	return d.vals, d.counts, d.nan
}

// MergeRuns folds the distribution whose runs (in DistRuns' form) are
// vals, counts and nan into d; into a zero Dist, it rebuilds that
// distribution. It first validates the canonical-form invariants, so
// hostile bytes cannot construct a Dist whose queries would misbehave:
// values strictly increasing, NaN-free (NaNs live only in the dedicated
// counter), counts positive, and the total sample count representable.
// A nil d only validates. Nothing of vals or counts is kept, so a
// decoder can reuse them for the next distribution.
func MergeRuns(d *Dist, vals []float64, counts []int64, nan int64) error {
	n, err := checkRuns(vals, counts, nan)
	if err == nil && d != nil {
		d.Merge(&Dist{vals: vals, counts: counts, nan: nan, n: n})
	}
	return err
}

// checkRuns validates the canonical-form invariants and returns the
// total sample count.
func checkRuns(vals []float64, counts []int64, nan int64) (int64, error) {
	if len(vals) != len(counts) {
		return 0, fmt.Errorf("stats: %d values with %d counts", len(vals), len(counts))
	}
	if nan < 0 {
		return 0, fmt.Errorf("stats: negative NaN count %d", nan)
	}
	n := nan
	for i, v := range vals {
		if math.IsNaN(v) {
			return 0, fmt.Errorf("stats: NaN at run %d (belongs in the NaN counter)", i)
		}
		if i > 0 && !(vals[i-1] < v) {
			return 0, fmt.Errorf("stats: runs not strictly increasing at %d", i)
		}
		if counts[i] <= 0 {
			return 0, fmt.Errorf("stats: non-positive count %d at run %d", counts[i], i)
		}
		n += counts[i]
		if n < 0 {
			return 0, fmt.Errorf("stats: sample count overflow")
		}
	}
	return n, nil
}
