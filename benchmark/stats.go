package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted is the q-quantile (0..1) of an already sorted sample,
// linearly interpolated between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantileSorted(sorted(xs), 0.5) }

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method): the rule the builder's contract names for the
// run-to-run spread, so -compare and the driver agree on a spread.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, fmt.Errorf("median is 0, spread undefined")
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// minBeyond is the choosing-metrics rule: a percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, refusing a
// percentile the sample cannot support.
func percentile(xs []float64, p float64) (float64, error) {
	beyond := float64(len(xs)) * (100 - p) / 100
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %.1f samples beyond it, need %d", p, len(xs), beyond, minBeyond)
	}
	return quantileSorted(sorted(xs), p/100), nil
}

// groupedTail is the run's tail percentile: the p-th percentile of each
// group of consecutive batches just large enough to support it, and the
// median of those. ends[i] is where batch i's samples end in xs. Pooling
// the whole run instead lets its one or two slowest ops own the tail —
// on windowed-soak the pooled p99 is in effect the slowest op's wall
// time — whereas the median over groups is the tail of a typical stretch.
// A trailing group too small to support the percentile is left out.
func groupedTail(xs []float64, ends []int, p float64) (float64, error) {
	need := int(math.Ceil(minBeyond * 100 / (100 - p)))
	var tails []float64
	from := 0
	for _, end := range ends {
		if end-from >= need {
			v, err := percentile(xs[from:end], p)
			if err != nil {
				return 0, err
			}
			tails = append(tails, v)
			from = end
		}
	}
	if len(tails) == 0 {
		return percentile(xs, p) // reports what support is missing
	}
	return median(tails), nil
}
