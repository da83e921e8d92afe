// Command perfbench is the repository's benchmark. One run generates a
// workload's inputs from a seed, builds the engine (and on yelp-http the
// server) from the dataset file, drives it for a fixed time, checks every
// answer, and prints the workload's metrics with their units and sample
// counts. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 300, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 a
// separate traced run wraps each call into a layer's public functions
// in the benchmark's own spans, writes them to a span file, and prints
// the per-layer metrics. See README.md for the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload gaode-lora-scales --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], 0, os.Stdout, os.Stderr))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by the
// timed run (-trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"throughput_qps", "queries/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"alloc_mb_per_query", "MB"},
	{"avg_sim", "similarity"},
}

// perLayer are the traced run's (-trace 1) metrics, named after the
// module that does the work. A metric of a layer a workload bypasses
// reads 0.
var perLayer = []metricDef{
	{"dataset.load_ms", "ms"},
	{"dataset.heap_mb", "MB"},
	{"partition.index_ms", "ms"},
	{"partition.index_heap_mb", "MB"},
	{"server.init_ms", "ms"},
	{"core.validate_us", "us"},
	{"partition.ms_per_query", "ms"},
	{"partition.alloc_mb_per_query", "MB"},
	{"partition.subspaces_per_query", "count"},
	{"partition.ac_points_per_query", "count"},
	{"partition.distinct_radii", "count"},
	{"simil.context_us", "us"},
	{"simil.memo_prep_ms_per_query", "ms"},
	{"simil.memo_hit_ratio", "ratio"},
	{"simil.score_ms_per_query", "ms"},
	{"simil.candidates_per_query", "count"},
	{"simil.ns_per_candidate", "ns"},
	{"hsp.enum_ms_per_query", "ms"},
	{"hsp.alloc_mb_per_query", "MB"},
	{"hsp.pruned_per_query", "count"},
	{"hsp.tuples_per_query", "count"},
	{"hsp.skipped_subspace_ratio", "ratio"},
	{"topk.offered_per_query", "count"},
	{"topk.accept_ratio", "ratio"},
	{"lora.enum_ms_per_query", "ms"},
	{"lora.alloc_mb_per_query", "MB"},
	{"lora.cell_tuples_per_query", "count"},
	{"lora.pruned_cell_prefixes_per_query", "count"},
	{"lora.sampled_out_ratio", "ratio"},
	{"rankgraph.pops_per_query", "count"},
	{"sched.cpu_per_wall", "ratio"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.hit_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.response_kb", "KB"},
	{"core.engine_ms_p50", "ms"},
	{"core.engine_ms_p90", "ms"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// maxNotes bounds the diagnostic lines a run prints.
const maxNotes = 20

// report collects one run's metrics, counts and diagnostics.
type report struct {
	attempted, failed int
	values            map[string]float64
	basis             map[string]string // what each value was computed from
	notes             []string
	extra             []string
	digest            string
}

func newReport() *report {
	return &report{values: map[string]float64{}, basis: map[string]string{}}
}

// set records a metric with a note on what it was computed from.
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	r.basis[name] = note
}

// note records a diagnostic line.
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed query or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// latencies records the median latency of lats (ms, +Inf for failed
// queries) and prints the p90 and p99 with the samples beyond them. The
// tail percentiles are not end-to-end metrics: yelp-http's examples cost
// from 1 ms to 2 s, and its p90 moved by 40-60 % between runs of one
// fixed set of examples, the engine's own p90 as much.
func (r *report) latencies(lats []float64) {
	r.set("latency_p50_ms", quantile(lats, 0.5), fmt.Sprintf("n=%d, %d beyond", len(lats), beyond(lats, 0.5)))
	for _, p := range []float64{0.9, 0.99} {
		r.extra = append(r.extra, fmt.Sprintf("latency_p%.0f_ms %.3f ms (n=%d, %d beyond)",
			p*100, quantile(lats, p), len(lats), beyond(lats, p)))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark run. pois overrides the corpus size when
// positive: the tests run every workload on tiny corpora.
func run(args []string, pois int, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: gaode-lora-scales or yelp-http")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 50, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	dir := fs.String("dir", ".bench_build", "directory for the generated dataset and the span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := findSpec(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		sp.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))

	in, err := makeInputs(sp, *seed, pois, *dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: inputs:", err)
		return 1
	}
	fmt.Fprintf(stdout, "inputs: fingerprint=%s dataset=%s (%d POIs) stream=%s (%d examples, %d requests)\n",
		in.fingerprint(), in.dataSum[:16], in.pois, in.streamSum[:16], len(in.queries), len(in.reqs))

	rep := newReport()
	var split [2]uint64
	if *trace == 1 {
		if split[0], split[1], err = heapSplit(in.dataPath); err != nil {
			fmt.Fprintln(stderr, "perfbench: set-up:", err)
			return 1
		}
	}
	st, times, err := setUp(in.dataPath, sp.http)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	defer st.close()
	if st.ds.Len() != in.pois {
		fmt.Fprintf(stderr, "perfbench: loaded %d POIs, generated %d\n", st.ds.Len(), in.pois)
		return 1
	}
	rep.set("setup_s", median(times.total), fmt.Sprintf("median of %d set-ups, range %.4f-%.4f s",
		setupReps, quantile(times.total, 0), quantile(times.total, 1)))
	rep.set("heap_mb", float64(times.heapBytes)/mb, "live heap added by set-up, after a forced GC")

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		rep.set("dataset.load_ms", median(times.load)*1e3, fmt.Sprintf("median of %d", setupReps))
		rep.set("partition.index_ms", median(times.index)*1e3, fmt.Sprintf("median of %d", setupReps))
		if sp.http {
			rep.set("server.init_ms", median(times.serve)*1e3, fmt.Sprintf("median of %d", setupReps))
		}
		rep.set("dataset.heap_mb", float64(split[0])/mb, "")
		rep.set("partition.index_heap_mb", float64(split[1])/mb, "")
		err = runTraced(sp, in, st, *seconds, *dir, rep)
	} else if sp.http {
		err = runHTTP(in, st, *seconds, rep)
	} else {
		runClosed(sp, in, st, *seconds, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return printReport(stdout, rep, defs)
}

// printReport prints the metrics and diagnostics, then the result line.
func printReport(w io.Writer, rep *report, defs []metricDef) int {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v := rep.values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A failed query is infinitely slow; JSON has no infinity.
			v = math.MaxFloat64
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		note := rep.basis[d.name]
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-10s%s\n", d.name, v, d.unit, note)
	}
	for _, e := range rep.extra {
		fmt.Fprintln(w, " ", e)
	}
	if rep.digest != "" {
		fmt.Fprintln(w, "  answer digest", rep.digest)
	}
	fmt.Fprintf(w, "  failed_frac %.6g (%d of %d attempted)\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for i, n := range rep.notes {
		if i == maxNotes {
			fmt.Fprintf(w, "  ... %d more notes\n", len(rep.notes)-maxNotes)
			break
		}
		fmt.Fprintln(w, "  note:", strings.TrimSpace(n))
	}
	if rep.attempted < 1 {
		fmt.Fprintln(w, "  no query was attempted")
		return 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(w, "  encode result:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}
