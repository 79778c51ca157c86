// Package stats provides the small statistical toolkit used throughout the
// enterprise-traffic reproduction: counters keyed by string, kept as
// tables of (key, count) entries, empirical distributions with quantiles
// and CDF extraction, and fraction
// formatting that mirrors the way the paper reports numbers (percentages,
// ranges such as "45%–65%", GB/MB volumes).
//
// The paper reports almost everything as fractions and distribution shapes
// rather than absolute values, so this package is deliberately exact: it
// keeps all samples (or exact counts) rather than sketching, because the
// reproduction operates at a scale where exactness is affordable.
//
// Epoch obligations: Counter and Dist are the leaves of the aggregate
// layer's merge and cut (DESIGN.md § "Epoch cuts and windowed reports"),
// which the fleet codec's per-type plan derives for everything above
// them. A cut moves a banked Counter or Dist out whole and installs a
// zero value, which is ready to use, and leaves nil where nothing was
// banked: a nil *Counter or *Dist reads as empty. What the two owe is an
// exact Merge — folding the pieces of any partition reproduces the
// counts and total of the aggregate that never split (a Dist bit for
// bit; a Counter's table may list its keys in another order) — that
// leaves its source usable and aliases nothing. Both are leaves of the
// fleet codec too: it writes and reads a Counter's table (Entries,
// AddBytes) and a Dist's runs (DistRuns, MergeRuns) itself.
package stats

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
)

// Counter accumulates named counts, e.g. packets per network-layer
// protocol. The counts are a table of (key, count) entries in the order
// the keys were first added. A small table is searched from the front;
// past indexAt entries it keeps a map from key to entry beside it. So
// raising a key already counted — by Add, AddBytes or Merge — is a
// lookup and an add, and allocates nothing. The table is allocated on
// first write, so an empty counter costs one small struct — the epoch
// machinery creates fresh counters at every window cut. A nil *Counter
// reads as empty.
type Counter struct {
	entries []Count
	index   map[string]int32 // key → its entry, once the table outgrows indexAt
	total   int64
}

// Count is one entry of a Counter's table.
type Count struct {
	Key string
	N   int64
}

// indexAt is the table size past which a Counter indexes its entries.
// Most counters never outgrow it — 94–100 % of those each benchmark
// workload fills — and indexing every table costs a map for each: with
// indexAt 0, windowed-soak's work_per_s fell 4.4 % and
// TestAllocationCeilings' replay/D3/window=60s row rose 16 %, past its
// ceiling, while fleet-fold's did not move (EXPERIMENTS.md "Counters as
// tables").
const indexAt = 8

// NewCounter returns an empty Counter.
func NewCounter() *Counter {
	return &Counter{}
}

// Add increments key by n (n may be negative, though callers never do that
// in practice).
func (c *Counter) Add(key string, n int64) {
	if i := c.find(key); i >= 0 {
		c.entries[i].N += n
	} else {
		c.insert(key, n)
	}
	c.total += n
}

// AddBytes is Add with the key as bytes. They are copied into a string
// only when the key is new, so a decoder folding wire bytes pays no
// conversion for a key the counter already holds.
func (c *Counter) AddBytes(key []byte, n int64) {
	if i := c.findBytes(key); i >= 0 {
		c.entries[i].N += n
	} else {
		c.insert(string(key), n)
	}
	c.total += n
}

// Inc increments key by one.
func (c *Counter) Inc(key string) { c.Add(key, 1) }

// find returns key's entry, or -1.
func (c *Counter) find(key string) int {
	if c.index != nil {
		if i, ok := c.index[key]; ok {
			return int(i)
		}
		return -1
	}
	for i := range c.entries {
		if c.entries[i].Key == key {
			return i
		}
	}
	return -1
}

// findBytes is find for a key in bytes; neither lookup copies them.
func (c *Counter) findBytes(key []byte) int {
	if c.index != nil {
		if i, ok := c.index[string(key)]; ok {
			return int(i)
		}
		return -1
	}
	for i := range c.entries {
		if c.entries[i].Key == string(key) {
			return i
		}
	}
	return -1
}

// insert appends an entry for key, which the table lacks, and indexes
// it once the table has outgrown indexAt.
func (c *Counter) insert(key string, n int64) {
	c.entries = append(c.entries, Count{Key: key, N: n})
	if c.index != nil {
		c.index[key] = int32(len(c.entries) - 1)
	} else if len(c.entries) > indexAt {
		c.reindex()
	}
}

// reindex builds the index over every entry.
func (c *Counter) reindex() {
	c.index = make(map[string]int32, 2*len(c.entries))
	for i := range c.entries {
		c.index[c.entries[i].Key] = int32(i)
	}
}

// noCounts is what a nil *Counter reads as.
var noCounts Counter

// read returns c, or noCounts for a nil c.
func (c *Counter) read() *Counter {
	if c == nil {
		return &noCounts
	}
	return c
}

// Get returns the count for key (zero if absent).
func (c *Counter) Get(key string) int64 {
	c = c.read()
	if i := c.find(key); i >= 0 {
		return c.entries[i].N
	}
	return 0
}

// Total returns the sum over all keys.
func (c *Counter) Total() int64 { return c.read().total }

// Fraction returns count(key)/total, or 0 if the counter is empty.
func (c *Counter) Fraction(key string) float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Get(key)) / float64(c.total)
}

// Entries returns the table: every key and its count, in the order the
// keys were first added, and nil for a counter that never held a key.
// That order depends on how the counter was built — the same counts
// merged by another path list their keys differently — so it must not
// reach output: sort, or reduce to what order cannot change (a sum,
// TopSum, a map). The slice is the counter's own: do not modify it,
// and do not add to the counter while holding it.
func (c *Counter) Entries() []Count { return c.read().entries }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.read().entries) }

// Merge adds all counts from other into c, walking other's table.
func (c *Counter) Merge(other *Counter) {
	src := other.read().entries
	for i := range src {
		c.Add(src[i].Key, src[i].N)
	}
}

// TopSum returns the sum of the n largest of counts and the sum of them
// all, so a top-n share is top over total. The n largest are selected
// in one pass without sorting; ties at the n-th place cannot change the
// sum.
func TopSum(counts iter.Seq[int64], n int) (top, total int64) {
	n = max(n, 0)
	// largest is the n largest counts met so far, largest first. The
	// pass is a plain callback, not a range over counts: a range body
	// handed to a sequence the compiler cannot see into escapes to the
	// heap with every variable it writes.
	largest := make([]int64, 0, n+1)
	counts(func(v int64) bool {
		total += v
		if len(largest) == n && (n == 0 || v <= largest[n-1]) {
			return true
		}
		at, _ := slices.BinarySearchFunc(largest, v, func(t, v int64) int { return cmp.Compare(v, t) })
		if largest = slices.Insert(largest, at, v); len(largest) > n {
			largest = largest[:n]
		}
		return true
	})
	for _, v := range largest {
		top += v
	}
	return top, total
}

// Dist is an empirical distribution over float64 samples. It is exact but
// compact: duplicate values are run-length compressed (value → count), so
// integer-valued observations — sizes, request counts, millisecond-rounded
// durations — collapse to their distinct values instead of retaining every
// raw sample. Observations are staged in a small buffer, sorted and
// run-length encoded as a batch, and merged into the sorted run list,
// amortized O(1) per sample.
// Quantiles and CDFs are bit-identical to the keep-every-sample
// implementation: a rank lands on exactly the same value either way.
//
// NaN samples are ordered before every other value (the sort.Float64s
// convention the all-samples implementation inherited); ±Inf sort
// normally. A nil *Dist reads as empty.
type Dist struct {
	// vals/counts are the sorted distinct values (NaN excluded) and their
	// multiplicities.
	vals   []float64
	counts []int64
	// cum[i] is the number of non-NaN samples ≤ vals[i]; emptied where
	// vals change (compact, foldPending) and rebuilt lazily.
	cum []int64
	// staged holds observations not yet merged into vals; stagedCounts
	// is where compact counts their runs.
	staged       []float64
	stagedCounts []int64
	// scratchVals/scratchCounts are the merge's ping-pong buffers: each
	// merge writes into the scratch arrays and swaps them with vals/counts,
	// so steady-state merging allocates nothing.
	scratchVals   []float64
	scratchCounts []int64
	// pendingVals/pendingCounts are merged sources' runs, one after
	// another, and pendingEnds where each ends: repeatedly merging small
	// distributions into a large one (the windowed analysis banks a delta
	// per time window) would re-walk the whole run list each time, so
	// incoming runs are staged and folded pairwise once their combined
	// size reaches the main list's — amortized O(log) per element instead
	// of quadratic, and exact: a fold is the same multiset union in a
	// different association. The fold ping-pongs between the staging
	// buffers and the scratch arrays, so it allocates nothing once they
	// have grown.
	pendingVals   []float64
	pendingCounts []int64
	pendingEnds   []int
	nan           int64 // NaN observations (rank before all values)
	n             int64 // total observations, NaN included
}

// NewDist returns an empty distribution.
func NewDist() *Dist { return &Dist{} }

// Observe adds a sample. Negative zero is canonicalized to positive zero:
// the two compare equal, so they share a run, and which sign the
// all-samples implementation surfaced was an artifact of sort order.
func (d *Dist) Observe(v float64) {
	if v == 0 {
		v = 0
	}
	if len(d.staged) == cap(d.staged) && len(d.staged) >= 64 && len(d.staged) >= len(d.vals)/2 {
		// The stage is full and large enough relative to the run list that
		// merging now keeps the per-sample cost amortized constant.
		d.compact()
	}
	d.staged = append(d.staged, v)
	d.n++
}

// compact sorts the staged samples, run-length encodes them — values
// over the batch's own prefix, counts into stagedCounts — and merges
// the runs into the run list.
func (d *Dist) compact() {
	if len(d.staged) == 0 {
		return
	}
	sort.Float64s(d.staged)
	// NaNs sort before everything; peel them into the dedicated counter.
	s := d.staged
	for len(s) > 0 && math.IsNaN(s[0]) {
		d.nan++
		s = s[1:]
	}
	if len(s) > 0 {
		vals, counts := s[:0], d.stagedCounts[:0]
		for _, v := range s {
			if last := len(vals) - 1; last >= 0 && vals[last] == v {
				counts[last]++
				continue
			}
			vals = append(vals, v)
			counts = append(counts, 1)
		}
		mv, mc := mergeRuns(d.scratchVals[:0], d.scratchCounts[:0], d.vals, d.counts, vals, counts)
		d.vals, d.counts, d.scratchVals, d.scratchCounts = mv, mc, d.vals[:0], d.counts[:0]
		d.stagedCounts = counts[:0]
		d.cum = d.cum[:0]
	}
	d.staged = d.staged[:0]
}

// Merge folds other's samples into d, exactly: the result is the
// distribution that would have observed both sample multisets, so merging
// is commutative and associative and the merged quantiles/CDFs are
// bit-identical for any grouping of the sources (the property the
// parallel replay's shard merge relies on). other's runs are copied to
// d's staged runs, which fold once their volume reaches the main list's,
// so other can keep accumulating (its arrays may become merge scratch)
// without corrupting d. other is left logically unchanged (its staged
// samples are compacted in place, which every read path does anyway).
func (d *Dist) Merge(other *Dist) {
	if other == nil || other.n == 0 {
		return
	}
	other.compact()
	other.foldPending()
	d.nan += other.nan
	d.n += other.n
	if len(other.vals) == 0 {
		return
	}
	d.pendingVals = append(d.pendingVals, other.vals...)
	d.pendingCounts = append(d.pendingCounts, other.counts...)
	d.pendingEnds = append(d.pendingEnds, len(d.pendingVals))
	if n := len(d.pendingVals); n >= 64 && n >= len(d.vals) {
		d.foldPending()
	}
}

// foldPending merges the staged runs pairwise, a level at a time, from
// the staging buffers into the scratch arrays and back, then the one run
// left with the main list into whichever pair is free — O(total · log
// runs), exact for any association. The main list's old arrays become
// the scratch.
func (d *Dist) foldPending() {
	if len(d.pendingEnds) == 0 {
		return
	}
	av, ac, ends := d.pendingVals, d.pendingCounts, d.pendingEnds
	bv, bc := d.scratchVals[:0], d.scratchCounts[:0]
	for len(ends) > 1 {
		start, out := 0, 0
		for i := 0; i < len(ends); i += 2 {
			if i+1 == len(ends) {
				bv = append(bv, av[start:ends[i]]...)
				bc = append(bc, ac[start:ends[i]]...)
			} else {
				mid, end := ends[i], ends[i+1]
				bv, bc = mergeRuns(bv, bc, av[start:mid], ac[start:mid], av[mid:end], ac[mid:end])
			}
			start = ends[min(i+1, len(ends)-1)]
			ends[out] = len(bv)
			out++
		}
		ends = ends[:out]
		av, ac, bv, bc = bv, bc, av[:0], ac[:0]
	}
	bv, bc = mergeRuns(bv, bc, d.vals, d.counts, av, ac)
	d.vals, d.counts, d.scratchVals, d.scratchCounts = bv, bc, d.vals[:0], d.counts[:0]
	d.pendingVals, d.pendingCounts, d.pendingEnds = av[:0], ac[:0], ends[:0]
	d.cum = d.cum[:0]
}

// mergeRuns appends the two-way merge of sorted (value, count) run lists
// a and b to mv, mc.
func mergeRuns(mv []float64, mc []int64, av []float64, ac []int64, bv []float64, bc []int64) ([]float64, []int64) {
	mv = slices.Grow(mv, len(av)+len(bv))
	mc = slices.Grow(mc, len(ac)+len(bc))
	i, j := 0, 0
	for i < len(av) && j < len(bv) {
		switch {
		case av[i] < bv[j]:
			mv = append(mv, av[i])
			mc = append(mc, ac[i])
			i++
		case av[i] > bv[j]:
			mv = append(mv, bv[j])
			mc = append(mc, bc[j])
			j++
		default:
			mv = append(mv, av[i])
			mc = append(mc, ac[i]+bc[j])
			i++
			j++
		}
	}
	mv = append(mv, av[i:]...)
	mc = append(mc, ac[i:]...)
	mv = append(mv, bv[j:]...)
	mc = append(mc, bc[j:]...)
	return mv, mc
}

func (d *Dist) ensureCompact() {
	d.compact()
	d.foldPending()
	if len(d.cum) == 0 && len(d.vals) > 0 {
		if cap(d.cum) < len(d.vals) {
			d.cum = make([]int64, 0, len(d.vals))
		}
		var run int64
		for _, c := range d.counts {
			run += c
			d.cum = append(d.cum, run)
		}
	}
}

// N returns the number of samples.
func (d *Dist) N() int {
	if d == nil {
		return 0
	}
	return int(d.n)
}

// Distinct returns the number of distinct non-NaN values retained — the
// compact representation's actual memory footprint.
func (d *Dist) Distinct() int {
	if d.N() == 0 {
		return 0
	}
	d.ensureCompact()
	return len(d.vals)
}

// valueAtRank returns the rank-th smallest sample (0-based), with NaNs
// ordered first, exactly as indexing the sorted all-samples slice would.
func (d *Dist) valueAtRank(rank int64) float64 {
	if rank < d.nan {
		return math.NaN()
	}
	rank -= d.nan
	idx := sort.Search(len(d.cum), func(i int) bool { return d.cum[i] > rank })
	if idx >= len(d.vals) {
		idx = len(d.vals) - 1
	}
	return d.vals[idx]
}

// Quantile returns the q-quantile (0 <= q <= 1) using nearest-rank on the
// sorted samples. Returns 0 for an empty distribution.
func (d *Dist) Quantile(q float64) float64 {
	if d.N() == 0 {
		return 0
	}
	d.ensureCompact()
	if q <= 0 {
		return d.valueAtRank(0)
	}
	if q >= 1 {
		return d.valueAtRank(d.n - 1)
	}
	idx := int64(math.Ceil(q*float64(d.n))) - 1
	if idx < 0 {
		idx = 0
	}
	return d.valueAtRank(idx)
}

// Median is Quantile(0.5).
func (d *Dist) Median() float64 { return d.Quantile(0.5) }

// Min returns the smallest sample (0 if empty).
func (d *Dist) Min() float64 { return d.Quantile(0) }

// Max returns the largest sample (0 if empty).
func (d *Dist) Max() float64 { return d.Quantile(1) }

// Mean returns the arithmetic mean (0 if empty).
func (d *Dist) Mean() float64 {
	if d.N() == 0 {
		return 0
	}
	return d.Sum() / float64(d.n)
}

// Sum returns the total of all samples (NaN if any sample was NaN).
func (d *Dist) Sum() float64 {
	if d.N() == 0 {
		return 0
	}
	d.ensureCompact()
	if d.nan > 0 {
		return math.NaN()
	}
	var sum float64
	for i, v := range d.vals {
		sum += v * float64(d.counts[i])
	}
	return sum
}

// CDFPoint is one (x, F(x)) point of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns up to maxPoints points of the empirical CDF, evenly spaced in
// rank, always including the minimum and maximum. It is the series behind
// every "Cumulative Fraction" figure in the paper.
func (d *Dist) CDF(maxPoints int) []CDFPoint {
	n := int64(d.N())
	if n == 0 {
		return nil
	}
	d.ensureCompact()
	if maxPoints < 2 {
		maxPoints = 2
	}
	if int64(maxPoints) > n {
		maxPoints = int(n)
	}
	if maxPoints == 1 {
		return []CDFPoint{{X: d.valueAtRank(n - 1), F: 1}}
	}
	pts := make([]CDFPoint, 0, maxPoints)
	for i := 0; i < maxPoints; i++ {
		rank := int64(i) * (n - 1) / int64(maxPoints-1)
		pts = append(pts, CDFPoint{X: d.valueAtRank(rank), F: float64(rank+1) / float64(n)})
	}
	return pts
}

// Pct formats a fraction as the paper does: "0.0%" below one-in-a-thousand,
// one decimal below 2%, integers above.
func Pct(f float64) string {
	p := f * 100
	switch {
	case p == 0:
		return "0%"
	case p < 0.05:
		return "0.0%"
	case p < 2:
		return fmt.Sprintf("%.1f%%", p)
	default:
		return fmt.Sprintf("%.0f%%", p)
	}
}

// Bytes formats a byte count with the unit the paper uses in the nearest
// table (MB for email/file tables, GB for the transport table).
func Bytes(n int64) string {
	switch {
	case n >= 10*1000*1000*1000:
		return fmt.Sprintf("%.2fGB", float64(n)/1e9)
	case n >= 1000*1000:
		return fmt.Sprintf("%.0fMB", float64(n)/1e6)
	case n >= 100*1000:
		return fmt.Sprintf("%.1fMB", float64(n)/1e6)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
