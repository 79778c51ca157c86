package kmerge

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// elem carries enough provenance to check stability: key is the sort
// key (deliberately colliding), run/seq identify where the element
// came from.
type elem struct {
	key      int
	run, seq int
}

func elemKey(e elem) int { return e.key }

// buildRuns makes k pre-sorted runs of random lengths (some empty) with
// keys drawn from a small space so duplicates are common, across runs
// and within one.
func buildRuns(rng *rand.Rand, k, maxLen, keySpace int) [][]elem {
	runs := make([][]elem, k)
	for r := range runs {
		n := rng.Intn(maxLen + 1)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(keySpace)
		}
		slices.Sort(keys)
		run := make([]elem, n)
		for i, key := range keys {
			run[i] = elem{key: key, run: r, seq: i}
		}
		runs[r] = run
	}
	return runs
}

// reference is the specified behavior: append all runs in index order,
// then stable-sort by key. Stable sort keeps equal keys in append
// order, i.e. by (run index, within-run position) — exactly the merge's
// tie rule.
func reference(runs [][]elem) []elem {
	var all []elem
	for _, r := range runs {
		all = append(all, r...)
	}
	slices.SortStableFunc(all, func(a, b elem) int { return cmp.Compare(a.key, b.key) })
	return all
}

func checkEqual(t *testing.T, got, want []elem, label string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: merged\n%+v\nwant\n%+v", label, got, want)
	}
}

// TestMergeMatchesSortProperty is the package contract: for seeded
// random run shapes — 0, 1, and many runs, heavy key duplication, and
// an empty or nil run forced into every position in turn — MergeBy is
// element-for-element identical to append-all-then-stable-sort (elem's
// provenance makes a cross-run or within-run tie swap a mismatch).
func TestMergeMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{0, 1, 2, 3, 8, 32} {
		for trial := 0; trial < 25; trial++ {
			runs := buildRuns(rng, k, 50, 12)
			want := reference(runs)
			label := fmt.Sprintf("k=%d trial=%d", k, trial)
			checkEqual(t, MergeBy(runs, elemKey), want, label)
			for hole := 0; hole < k; hole++ {
				for _, empty := range [][]elem{nil, {}} {
					holed := slices.Clone(runs)
					holed[hole] = empty
					checkEqual(t, MergeBy(holed, elemKey), reference(holed),
						fmt.Sprintf("%s, run %d emptied", label, hole))
				}
			}
		}
	}
}

// TestMergeEdgeShapes pins the shapes property trials may miss.
func TestMergeEdgeShapes(t *testing.T) {
	if got := MergeBy(nil, elemKey); got != nil {
		t.Errorf("MergeBy(nil) = %v, want nil", got)
	}
	if got := MergeBy([][]elem{{}, nil, {}}, elemKey); got != nil {
		t.Errorf("MergeBy(all empty) = %v, want nil", got)
	}
	// A single non-empty run among empties comes back as that very
	// slice — the documented no-copy shortcut — wherever it sits.
	run := []elem{{key: 1}, {key: 2}}
	for pos := 0; pos < 3; pos++ {
		runs := [][]elem{nil, {}, nil}
		runs[pos] = run
		if got := MergeBy(runs, elemKey); len(got) != 2 || &got[0] != &run[0] {
			t.Errorf("single live run at %d: MergeBy did not return the run itself", pos)
		}
	}
	// All-equal keys across many runs: pure tie-breaking. Output must
	// walk the runs in index order, each run intact.
	equal := [][]elem{
		{{key: 5, run: 0, seq: 0}, {key: 5, run: 0, seq: 1}},
		{{key: 5, run: 1, seq: 0}},
		{},
		{{key: 5, run: 3, seq: 0}, {key: 5, run: 3, seq: 1}, {key: 5, run: 3, seq: 2}},
	}
	checkEqual(t, MergeBy(equal, elemKey), slices.Concat(equal...), "all-equal keys")
}

// TestMergeUniqueKeysTotalOrder mirrors the in-repo call sites, whose
// keys (global packet indices) are unique: the merged sequence is the
// fully sorted union.
func TestMergeUniqueKeysTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(500)
		k := 2 + rng.Intn(15)
		runs := make([][]elem, k)
		for i, v := range perm {
			r := rng.Intn(k)
			runs[r] = append(runs[r], elem{key: v, run: r, seq: i})
		}
		for r := range runs {
			slices.SortFunc(runs[r], func(a, b elem) int { return cmp.Compare(a.key, b.key) })
		}
		got := MergeBy(runs, elemKey)
		if len(got) != len(perm) {
			t.Fatalf("trial %d: merged %d, want %d", trial, len(got), len(perm))
		}
		for i, e := range got {
			if e.key != i {
				t.Fatalf("trial %d: position %d holds key %d", trial, i, e.key)
			}
		}
	}
}
