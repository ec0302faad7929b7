#!/bin/bash
# What BENCHMARK.json's command runs: build the benchmark into the
# checkout's .bench_build (so that nothing outside the checkout is read
# or written, Go's build cache included) and run it with the driver's
# arguments. `go run ./benchmark` does the same with the user's own
# build cache.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
