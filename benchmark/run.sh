#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. This is
# the command BENCHMARK.json names; `go run ./benchmark` does the same from a
# developer's shell. Everything the build writes (Go's build cache and the
# binary) stays under .bench_build/ in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/pmbench" ./benchmark
# MADV_FREE instead of MADV_DONTNEED when the Go runtime returns memory: on
# the sandbox VM re-faulting returned pages costs up to 10x more from one run
# to the next, and scale-syn (900 MB of case state per second) would measure
# that instead of the planner.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"
exec "$build/pmbench" "$@"
