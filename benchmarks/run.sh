#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, in this directory) and runs
# it. Everything the build writes stays inside the checkout: the binary and
# the Go build cache live under .bench_build/ at its root.
#
#   bash benchmarks/run.sh --workload seq-rmat --seed 1 --seconds 24 --trace 0
#   bash benchmarks/run.sh -selfcheck 10            # every workload, seeds 1..10
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/benchmarks" .) >&2
exec "$build/benchmarks" -out "$here/out" -spec "$root/BENCHMARK.json" -dir "$here" "$@"
