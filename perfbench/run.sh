#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload yelp-http --seed 1 --seconds 50 --trace 0
#
# Run it from the repository root. Everything it builds or generates
# (Go build cache, binary, dataset files, span files) goes under
# .bench_build/ in that directory, so it reads and writes nothing
# outside the checkout and needs no network.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
    echo "run.sh: run from the repository root (perfbench/go.mod not found)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
