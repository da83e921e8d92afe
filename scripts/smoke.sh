#!/usr/bin/env bash
# smoke.sh — end-to-end server smoke test.
#
# Builds seqserver, starts it on an ephemeral port against a tiny
# synthetic dataset, probes /healthz, /metrics, one /search, the flight
# recorder's /debug/queries surface, replays the recorder's capture
# export through `seqbench -exp replay` (work counters must match the
# recorded ones exactly), and finally checks the phases an
# include_stats /search serves. Fails on any non-200 answer.
# check.sh runs this as its last step.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/seqserver" ./cmd/seqserver
go build -o "$workdir/seqbench" ./cmd/seqbench

# -flight-threshold 1ns: every query counts as slow, so the capture
# export below is guaranteed to carry replayable records.
"$workdir/seqserver" -synth gaode -n 2000 -seed 1 -addr 127.0.0.1:0 \
    -flight-threshold 1ns \
    >/dev/null 2>"$workdir/server.log" &
server_pid=$!

# The "listening" log record carries the bound address (JSON on stderr).
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$workdir/server.log" | head -n1)
    [ -n "$addr" ] && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "smoke: server exited early" >&2
        cat "$workdir/server.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "smoke: server never logged its address" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi

probe() {
    # probe <name> <expected-status> <curl args...>
    local name=$1 want=$2
    shift 2
    local got
    got=$(curl -s -o "$workdir/body" -w '%{http_code}' "$@")
    if [ "$got" != "$want" ]; then
        echo "smoke: $name returned HTTP $got (want $want)" >&2
        cat "$workdir/body" >&2
        exit 1
    fi
}

probe healthz 200 "http://$addr/healthz"
probe metrics 200 "http://$addr/metrics"
grep -q '^spatialseq_http_requests_total' "$workdir/body" || {
    echo "smoke: /metrics misses spatialseq_http_requests_total" >&2
    exit 1
}
probe search 200 -D "$workdir/headers" -X POST -H 'Content-Type: application/json' -d '{
    "k": 2, "beta": 5,
    "example": [
        {"x": 10, "y": 10, "category": "gaode-cat-0000"},
        {"x": 11, "y": 11, "category": "gaode-cat-0001"}
    ]
}' "http://$addr/search"
grep -q '"results"' "$workdir/body" || {
    echo "smoke: /search body carries no results field" >&2
    cat "$workdir/body" >&2
    exit 1
}

# The query above is "slow" (1ns threshold), so its span tree is retained:
# /debug/trace/{id} must serve well-formed Chrome trace-event JSON for the
# request ID the search response was stamped with.
request_id=$(tr -d '\r' <"$workdir/headers" | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: //p' | head -n1)
if [ -z "$request_id" ]; then
    echo "smoke: /search response carried no X-Request-ID" >&2
    cat "$workdir/headers" >&2
    exit 1
fi
probe debug-trace 200 "http://$addr/debug/trace/$request_id"
cp "$workdir/body" "$workdir/trace.json"
cat >"$workdir/validate_trace.go" <<'EOF'
// Standalone Chrome trace-event validator for smoke.sh: reads a trace
// JSON file and exits non-zero unless it is loadable timeline data with
// at least one subspace span.
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		fmt.Fprintln(os.Stderr, "trace is not valid JSON:", err)
		os.Exit(1)
	}
	if len(tr.TraceEvents) == 0 || tr.DisplayTimeUnit != "ms" {
		fmt.Fprintf(os.Stderr, "malformed trace: %d events, unit %q\n", len(tr.TraceEvents), tr.DisplayTimeUnit)
		os.Exit(1)
	}
	var complete, threadNames, subspaces int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Ts <= 0 || ev.Pid != 1 {
				fmt.Fprintf(os.Stderr, "bad complete event: %+v\n", ev)
				os.Exit(1)
			}
			if _, ok := ev.Args["subspace"]; ok {
				subspaces++
			}
		case "M":
			threadNames++
		default:
			fmt.Fprintf(os.Stderr, "unexpected event phase %q\n", ev.Ph)
			os.Exit(1)
		}
	}
	if complete == 0 || threadNames == 0 || subspaces == 0 {
		fmt.Fprintf(os.Stderr, "trace misses spans: %d X, %d M, %d subspace-tagged\n", complete, threadNames, subspaces)
		os.Exit(1)
	}
	fmt.Printf("trace ok: %d spans, %d subspace-tagged, %d tracks\n", complete, subspaces, threadNames)
}
EOF
go run "$workdir/validate_trace.go" "$workdir/trace.json" || {
    echo "smoke: /debug/trace/$request_id is not a loadable Chrome trace" >&2
    head -c 500 "$workdir/trace.json" >&2
    exit 1
}
probe debug-trace-html 200 "http://$addr/debug/trace/$request_id?format=html"
grep -q "trace $request_id" "$workdir/body" || {
    echo "smoke: /debug/trace html page is not the timeline" >&2
    exit 1
}

# The flight recorder must have seen the search above.
probe debug-queries 200 "http://$addr/debug/queries"
grep -q '"observed":1' "$workdir/body" || {
    echo "smoke: /debug/queries did not record the search" >&2
    cat "$workdir/body" >&2
    exit 1
}
probe debug-queries-html 200 "http://$addr/debug/queries?format=html"
grep -q 'query flight recorder' "$workdir/body" || {
    echo "smoke: /debug/queries?format=html is not the debug page" >&2
    exit 1
}
probe metrics-flight 200 "http://$addr/metrics"
grep -q '^spatialseq_slow_query_threshold_seconds' "$workdir/body" || {
    echo "smoke: /metrics misses spatialseq_slow_query_threshold_seconds" >&2
    exit 1
}
grep -q '^spatialseq_subspace_imbalance_ratio_count' "$workdir/body" || {
    echo "smoke: /metrics misses spatialseq_subspace_imbalance_ratio" >&2
    exit 1
}
grep -q '^spatialseq_spans_dropped_total' "$workdir/body" || {
    echo "smoke: /metrics misses spatialseq_spans_dropped_total" >&2
    exit 1
}

# Capture -> replay round trip: export the retained slow queries and
# re-run them offline; replay fails if the work counters diverge.
probe capture 200 "http://$addr/debug/queries/capture"
cp "$workdir/body" "$workdir/capture.json"
grep -q '"capture"' "$workdir/capture.json" || {
    echo "smoke: capture export carries no replayable record" >&2
    cat "$workdir/capture.json" >&2
    exit 1
}
"$workdir/seqbench" -exp replay -capture "$workdir/capture.json" \
    >"$workdir/replay.out" 2>&1 || {
    echo "smoke: seqbench replay failed" >&2
    cat "$workdir/replay.out" >&2
    exit 1
}
grep -q '0 work-counter mismatches' "$workdir/replay.out" || {
    echo "smoke: replay reported counter mismatches" >&2
    cat "$workdir/replay.out" >&2
    exit 1
}

# include_stats bypasses the query cache and serves this execution's
# phase table: non-empty, and holding the engine's first and last phase.
probe search-stats 200 -D "$workdir/headers" -X POST -H 'Content-Type: application/json' -d '{
    "k": 2, "beta": 5, "include_stats": true,
    "example": [
        {"x": 10, "y": 10, "category": "gaode-cat-0000"},
        {"x": 11, "y": 11, "category": "gaode-cat-0001"}
    ]
}' "http://$addr/search"
tr -d '\r' <"$workdir/headers" | grep -qi '^x-cache: bypass$' || {
    echo "smoke: include_stats /search was not X-Cache: bypass" >&2
    cat "$workdir/headers" >&2
    exit 1
}
phases=$(grep -o '"phases":\[[^]]*\]' "$workdir/body" || true)
case "$phases" in
'"phases":[{'*) ;;
*)
    echo "smoke: include_stats response carries no stats.phases" >&2
    cat "$workdir/body" >&2
    exit 1
    ;;
esac
for name in validate topk.merge; do
    grep -q "\"name\":\"$name\"" <<<"$phases" || {
        echo "smoke: stats.phases misses $name: $phases" >&2
        exit 1
    }
done

echo "smoke test passed ($addr, replay verified, phases served)"
