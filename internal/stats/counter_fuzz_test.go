package stats

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// refCounter is what a Counter must read as: a map of counts, the keys
// in the order they were first added, and the sum of everything added.
type refCounter struct {
	counts map[string]int64
	order  []string
	total  int64
}

func newRefCounter() *refCounter { return &refCounter{counts: map[string]int64{}} }

func (r *refCounter) add(key string, n int64) {
	if _, ok := r.counts[key]; !ok {
		r.order = append(r.order, key)
	}
	r.counts[key] += n
	r.total += n
}

func (r *refCounter) merge(src *refCounter) {
	for _, k := range src.order {
		r.add(k, src.counts[k])
	}
}

// ranked is the counts, largest first.
func (r *refCounter) ranked() []int64 {
	counts := make([]int64, 0, len(r.order))
	for _, k := range r.order {
		counts = append(counts, r.counts[k])
	}
	slices.SortFunc(counts, func(a, b int64) int { return cmp.Compare(b, a) })
	return counts
}

// fuzzKeys is the key space: three times indexAt, so a table crosses
// into its index by adds and by merges, and the empty key among them.
var fuzzKeys = func() []string {
	keys := []string{""}
	for i := 1; i < 3*indexAt; i++ {
		keys = append(keys, fmt.Sprintf("10.0.%d.%d", i%5, i))
	}
	return keys
}()

// FuzzCounter runs a program of Add, AddBytes, Merge and cuts over two
// Counters and a third that takes the cuts, against reference maps: after
// every step each counter's Get for every key, Total, Len, its entries in
// first-add order and TopSum over its entries for every n — ties at the
// n-th count included — agree with its reference, and the index covers the
// table exactly when the table has outgrown indexAt.
func FuzzCounter(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 3, 1, 3, 250, 3, 0, 0, 4, 0, 5, 0})
	f.Add([]byte{2, 1, 1, 2, 2, 1, 2, 3, 1, 2, 4, 1, 2, 5, 1, 2, 6, 1, 2, 7, 1, 2, 8, 1, 2, 9, 1, 3, 0, 0, 4, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 9, 1, 0, 10, 1, 0, 11, 1, 0, 12, 1, 0, 13, 1, 0, 14, 1, 0, 15, 1, 0, 16, 1, 0, 17, 1, 5, 0, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		a, b, cuts := &Counter{}, &Counter{}, &Counter{}
		ra, rb, rcuts := newRefCounter(), newRefCounter(), newRefCounter()
		buf := make([]byte, 0, 16)
		for len(prog) >= 3 {
			op, key, n := prog[0]%6, fuzzKeys[int(prog[1])%len(fuzzKeys)], int64(int8(prog[2]))
			prog = prog[3:]
			switch op {
			case 0:
				a.Add(key, n)
				ra.add(key, n)
			case 1:
				// The bytes are overwritten once added: the counter
				// must have copied a new key, not kept them.
				buf = append(buf[:0], key...)
				a.AddBytes(buf, n)
				ra.add(key, n)
				for i := range buf {
					buf[i] = '#'
				}
			case 2:
				b.Add(key, n)
				rb.add(key, n)
			case 3:
				a.Merge(b)
				ra.merge(rb)
			case 4:
				// Cut a: move it out whole and fold it into cuts. The
				// moved counter keeps counting; cuts must not see it.
				moved := *a
				*a = Counter{}
				cuts.Merge(&moved)
				rcuts.merge(ra)
				ra = newRefCounter()
				moved.Add(key, 1)
			case 5:
				*b, rb = Counter{}, newRefCounter()
			}
			for name, p := range map[string]struct {
				c *Counter
				r *refCounter
			}{"a": {a, ra}, "b": {b, rb}, "cuts": {cuts, rcuts}} {
				checkCounter(t, name, p.c, p.r)
			}
		}
	})
}

func checkCounter(t *testing.T, name string, c *Counter, r *refCounter) {
	t.Helper()
	if c.Len() != len(r.counts) || c.Total() != r.total {
		t.Fatalf("%s: Len %d Total %d, reference %d and %d", name, c.Len(), c.Total(), len(r.counts), r.total)
	}
	for _, k := range fuzzKeys {
		if c.Get(k) != r.counts[k] {
			t.Fatalf("%s: Get(%q) = %d, reference %d", name, k, c.Get(k), r.counts[k])
		}
	}
	entries := c.Entries()
	for i, e := range entries {
		if e.Key != r.order[i] || e.N != r.counts[e.Key] {
			t.Fatalf("%s: entry %d is %q:%d, reference %q:%d", name, i, e.Key, e.N, r.order[i], r.counts[r.order[i]])
		}
	}
	counts := func(yield func(int64) bool) {
		for _, e := range entries {
			if !yield(e.N) {
				return
			}
		}
	}
	want := r.ranked()
	var sum int64
	for n := 0; n <= len(want)+1; n++ {
		if n > 0 && n <= len(want) {
			sum += want[n-1]
		}
		if top, total := TopSum(counts, n); top != sum || total != r.total {
			t.Fatalf("%s: TopSum(%d) = %d of %d, reference %d of %d (counts %v)", name, n, top, total, sum, r.total, r.counts)
		}
	}
	if (c.index != nil) != (len(entries) > indexAt) {
		t.Fatalf("%s: %d entries, index %v", name, len(entries), c.index != nil)
	}
	if c.index != nil {
		if len(c.index) != len(entries) {
			t.Fatalf("%s: index of %d keys over %d entries", name, len(c.index), len(entries))
		}
		for k, i := range c.index {
			if entries[i].Key != k {
				t.Fatalf("%s: index sends %q to entry %d, %q", name, k, i, entries[i].Key)
			}
		}
	}
}
