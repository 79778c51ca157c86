package stats

import (
	"math/rand"
	"testing"
)

// distOf is a Dist holding each of vals once, compacted.
func distOf(vals []float64) *Dist {
	d := NewDist()
	for _, v := range vals {
		d.Observe(v)
	}
	d.Median()
	return d
}

// BenchmarkDistMerge times the merge shapes the aggregates meet, each op
// into a fresh Dist and ending with a read, which folds whatever the
// merges left staged:
//   - bank: 1 000 small sources (64 distinct values each) into one holding
//     64 k, the per-window banking of a long windowed run;
//   - halves: two sources of 32 k distinct values each, interleaved;
//   - above-max: a 32 k source wholly above the receiver's 32 k maximum.
func BenchmarkDistMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const half = 32 << 10
	evens, odds, low, high := make([]float64, half), make([]float64, half), make([]float64, half), make([]float64, half)
	for i := range evens {
		evens[i], odds[i] = float64(2*i), float64(2*i+1)
		low[i], high[i] = float64(i), float64(half+i)
	}
	large := distOf(append(append([]float64{}, evens...), odds...))
	small := make([]*Dist, 1000)
	for i := range small {
		vals := make([]float64, 64)
		for j := range vals {
			vals[j] = float64(rng.Intn(4 * half))
		}
		small[i] = distOf(vals)
	}
	shapes := []struct {
		name    string
		sources []*Dist
	}{
		{"bank", append([]*Dist{large}, small...)},
		{"halves", []*Dist{distOf(evens), distOf(odds)}},
		{"above-max", []*Dist{distOf(low), distOf(high)}},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := NewDist()
				for _, src := range s.sources {
					d.Merge(src)
				}
				d.Median()
			}
		})
	}
}
