// Package kmerge merges k pre-sorted runs into one sorted slice. Its two
// callers — pipeline.Result.SortedConns (per-shard connection runs →
// first-packet order) and core's mergeUDPEvents (per-shard datagram runs
// → arrival order) — merge one run per pipeline worker, so k ≤ Workers.
//
// The merge is a head scan, O(n·k). A loser tree (O(n log k), 260 lines)
// stood here from PR 10 and was deleted for want of a number: over
// 65 536 round-robin elements it read 0.70 / 0.97 / 1.47 ms at
// k = 2 / 8 / 32 against the scan's 0.68 / 1.52 / 5.76 ms — level at the
// benchmark host's k = 2 — while a traced batch-payload run merges
// ≈ 2.7 k connections a trace (pipeline.sorted_conns_ms 0.015) and both
// merges together were under 1 % of analysis CPU.
package kmerge

import (
	"cmp"
	"slices"
)

// MergeBy merges the pre-sorted runs ascending by key(e). Runs may be
// empty or nil; none non-empty yields nil, and exactly one is returned
// as is (no copy), so a caller that mutates the result must own the runs.
//
// Ties across runs resolve to the lower run index and a run is never
// reordered, so the result is element for element what appending the
// runs in index order and stable-sorting gives: runs indexed by shard
// merge to the same order for any shard count, which is what keeps
// reports byte-identical across worker counts.
func MergeBy[T any, K cmp.Ordered](runs [][]T, key func(T) K) []T {
	// Dropping empty runs keeps the rest in run-index order.
	live := make([][]T, 0, len(runs))
	n := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			n += len(r)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	out := make([]T, 0, n)
	for len(live) > 1 {
		best, bestKey := 0, key(live[0][0])
		for r := 1; r < len(live); r++ {
			if k := key(live[r][0]); k < bestKey {
				best, bestKey = r, k
			}
		}
		out = append(out, live[best][0])
		if live[best] = live[best][1:]; len(live[best]) == 0 {
			live = slices.Delete(live, best, best+1)
		}
	}
	return append(out, live[0]...)
}
