#!/usr/bin/env bash
# What BENCHMARK.json's command runs: build ./bench from source and run it
# with the driver's arguments, keeping everything the Go toolchain writes
# (build cache, temporary files, the binary) inside the checkout, under
# .bench_build/. By hand, `go run ./bench ...` does the same with the
# toolchain's default cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
