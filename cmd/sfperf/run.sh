#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json's command): build
# sfperf from source with every Go cache kept inside the checkout, then
# hand it the driver's arguments. By hand, `go run ./cmd/sfperf` does the
# same with the user's own caches.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
go build -o "$build/sfperf" ./cmd/sfperf
exec "$build/sfperf" "$@"
