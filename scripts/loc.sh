#!/usr/bin/env bash
# Non-test Go lines per package, outside benchmark/ — the count
# ROADMAP item 5's reduction target is stated in. Raw `wc -l` lines
# (blank and comment lines included), so the number is reproducible
# with nothing but coreutils; quote the total when claiming a reduction.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2; sub(/\/[^\/]*$/, "", dir); sub(/^\.\/?/, "", dir)
         if (dir == "") dir = "."
         n[dir] += $1; total += $1
       }
       END {
         for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
         close("sort -k2")
         printf "%7d  total\n", total
       }'
