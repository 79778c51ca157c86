#!/bin/bash
# The driver's entry point: build the benchmark from source into
# .bench_build inside the checkout, then run it with the driver's
# arguments (--workload NAME --seed N --seconds S --trace 0|1).
#
# Everything the Go toolchain writes — build cache, work directory — is
# pointed inside the checkout too, so a run reads and writes nowhere
# else. The first build in a checkout compiles the standard library into
# that cache (about a minute on two cores); later runs reuse it.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark: no go.mod beside benchmark/: this is not a checkout of the repository" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false" GOTOOLCHAIN=local

go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
