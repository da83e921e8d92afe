#!/usr/bin/env bash
# bench_smoke.sh — produce a tiny machine-readable BENCH artifact in
# seconds, plus a benchdiff self-check (identical inputs must pass the
# gate). CI uploads the artifact and diffs it against the checked-in
# BENCH_baseline.json in advisory mode; regenerate that baseline with
#
#     scripts/bench_smoke.sh BENCH_baseline.json
#
# whenever the schema or the smoke workload changes. Sizes are deliberately
# tiny: the artifact exists to exercise the record pipeline and to track
# the deterministic work counters, not to publish latencies.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_smoke.json}"

# skew rides along so the worker-imbalance gauges (work stealing's
# target metric) are part of every baseline benchdiff gates on.
go run ./cmd/seqbench \
    -exp table2-gaode,table3,skew \
    -sizes 200,500 -queries 3 -budget 10s -seed 1 \
    -json "$out" >/dev/null

go run ./cmd/benchdiff -gate "$out" "$out" >/dev/null

# Kernel micro-benchmarks in short mode: a fixed tiny iteration count keeps
# this a compile-and-run smoke (does the harness still build, do the
# zero-alloc kernels still report 0 allocs/op), not a timing measurement.
go test -run '^$' -bench . -benchtime 100x \
    ./internal/vectormath ./internal/geo ./internal/simil >/dev/null
# The rank graph's benchmarks, the partition build's, gather's and
# nearest search's, and the road network's node snap print their
# allocs/op into the log; ten iterations keep the 100k-point partition
# benchmarks to about a second.
go test -run '^$' -bench . -benchtime 10x -benchmem \
    ./internal/rankgraph ./internal/partition ./internal/roadnet | grep '^Benchmark'

echo "bench smoke: wrote $out ($(go run ./cmd/benchdiff "$out" "$out" | tail -1))"
