#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# Everything the Go toolchain writes (build cache and temporary files included)
# stays under .bench_build, so a run reads and writes only inside its checkout.
# Run from the repository root:
#
#   bash bench/run.sh --workload floor_inmem --seed 1 --seconds 12 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/main.go ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 3
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -o "$build/aqua-bench" ./bench
exec "$build/aqua-bench" "$@"
