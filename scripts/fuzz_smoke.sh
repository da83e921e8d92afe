#!/usr/bin/env bash
# fuzz_smoke.sh — run every native fuzz target for a bounded time.
#
# Each target first replays its committed corpus (testdata/fuzz/<target>/
# in its package) and then explores new inputs for FUZZTIME. Any crasher
# fails the script; go writes the minimized input under the package's
# testdata/fuzz/ directory — commit it there to turn the crash into a
# permanent regression test, and reproduce it with
#     go test <pkg> -run '<Target>/<filename>'
#
# FUZZTIME defaults to a quick local smoke; CI runs 30s per target.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-5s}"

run() { # run <pkg> <target>
    echo "== fuzz $2 ($1, $FUZZTIME) =="
    go test "$1" -run '^$' -fuzz "$2" -fuzztime "$FUZZTIME"
}

run ./internal/dataset FuzzReadBinary
run ./internal/geo FuzzDistVector
run ./internal/server FuzzServerDecode
run ./internal/testkit FuzzSearch

echo "All fuzz targets clean."
