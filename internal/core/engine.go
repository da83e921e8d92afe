// Package core hosts the query engine: the algorithm-agnostic entry point
// that validates a query, picks (or is told) an algorithm, runs it against
// a shared immutable dataset, and returns scored, ranked tuples.
//
// An Engine is built once per dataset; the partition index (the dataset's
// positions ordered along the midpoint split tree, see partition.Index)
// is shared by all queries and all algorithms, and answers Snap's
// nearest-object searches too. Engines are safe for concurrent Search
// calls.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/dfsprune"
	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// Algorithm selects the search algorithm.
type Algorithm int

const (
	// Auto picks the exact HSP, which answers at least as fast as LORA
	// at every measured size and tuple size (EXPERIMENTS.md, Crossover).
	Auto Algorithm = iota
	// BruteForce is the exhaustive oracle (tiny datasets only).
	BruteForce
	// DFSPrune is the CIKM'17 baseline.
	DFSPrune
	// HSP is the paper's exact algorithm.
	HSP
	// LORA is the paper's approximate algorithm.
	LORA
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case BruteForce:
		return "brute"
	case DFSPrune:
		return "dfs-prune"
	case HSP:
		return "hsp"
	case LORA:
		return "lora"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a string (as accepted on CLI flags) to an
// Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "brute":
		return BruteForce, nil
	case "dfs-prune", "dfsprune", "dfs":
		return DFSPrune, nil
	case "hsp":
		return HSP, nil
	case "lora":
		return LORA, nil
	default:
		return Auto, fmt.Errorf("core: unknown algorithm %q", s)
	}
}

// Options carries per-call tuning for the underlying algorithms. The zero
// value is the paper's configuration.
type Options struct {
	HSP  hsp.Options
	LORA lora.Options
	// CollectStats attaches per-search counters to the Result
	// (Result.Stats) explaining where the search spent its work.
	CollectStats bool
	// Spans, when non-nil, times the execution — the timing companion
	// to CollectStats. It records the hierarchical span tree (worker
	// timelines with per-subspace work deltas attached), which slow
	// queries retain in their flight record for /debug/trace, and the
	// exact per-phase totals Spans.PhaseTimings reports (validation,
	// partitioning, enumeration, DFS, top-k merge). On the sequential
	// path the phases are disjoint, so their sum is bounded by
	// Result.Elapsed. Nil disables tracing at no cost.
	Spans *span.Tracer
}

// ResultTuple is one ranked answer: the matched objects (one per example
// dimension, as dataset positions) and the similarity to the example.
type ResultTuple struct {
	Positions []int32
	Sim       float64
}

// Result is a completed search.
type Result struct {
	Algorithm Algorithm
	Tuples    []ResultTuple
	Elapsed   time.Duration
	// Stats holds the per-search counters when Options.CollectStats was
	// set (zero otherwise).
	Stats stats.Snapshot
	// Skew is the span tree's imbalance report when Options.Spans was
	// set and the tree holds worker spans (nil otherwise). The engine
	// computes it once, after the clock stops, for its flight record and
	// for the server's histograms and include_stats alike: each
	// computation copies the whole span arena.
	Skew *span.SkewReport
}

// Engine answers example-based queries over one dataset.
type Engine struct {
	ds  *dataset.Dataset
	pix *partition.Index
	// flight, when set, receives one flight.Record per Search call —
	// the always-on per-query forensics channel. Atomic so a recorder
	// can be attached after searches have started (the server wires it
	// at construction; embedded users may never set it and pay one nil
	// load per search).
	flight atomic.Pointer[flight.Recorder]
}

// NewEngine builds the engine and its shared spatial index.
func NewEngine(ds *dataset.Dataset) *Engine {
	return &Engine{ds: ds, pix: partition.NewIndex(ds)}
}

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *dataset.Dataset { return e.ds }

// PartitionIndex exposes the shared partition index (used by benchmarks
// that want to isolate index construction from query time).
func (e *Engine) PartitionIndex() *partition.Index { return e.pix }

// SetFlightRecorder attaches the flight recorder every subsequent
// Search emits its per-query record into (nil detaches). Safe to call
// concurrently with searches.
func (e *Engine) SetFlightRecorder(r *flight.Recorder) { e.flight.Store(r) }

// FlightRecorder returns the attached flight recorder, or nil.
func (e *Engine) FlightRecorder() *flight.Recorder { return e.flight.Load() }

// Search answers q with the requested algorithm. It validates (and
// normalizes) q first. The context cancels long runs. When a flight
// recorder is attached, every call emits one flight.Record — outcome,
// latency, phase timings and work counters included — and slow queries
// are logged through the recorder.
func (e *Engine) Search(ctx context.Context, q *query.Query, algo Algorithm, opt Options) (*Result, error) {
	fr := e.flight.Load()
	if fr == nil {
		return e.search(ctx, q, algo, opt)
	}
	start := time.Now()
	res, err := e.search(ctx, q, algo, opt)
	rec := flight.Record{
		RequestID: obs.RequestID(ctx),
		Start:     start.UnixNano(),
		Variant:   q.Variant.String(),
		M:         int32(q.Example.M()),
		Dims:      int32(e.ds.AttrDim()),
		Pins:      int32(len(q.Example.Fixed)),
		K:         int32(q.Params.K),
		Phases:    opt.Spans.PhaseTimings(),
	}
	if err == nil {
		rec.Skew = res.Skew
		rec.LatencyNS = int64(res.Elapsed)
		rec.Algorithm = res.Algorithm.String()
		rec.Outcome = flight.OutcomeOK
		rec.Work = res.Stats
		if fr.WouldRetain(res.Elapsed) {
			rec.Capture = CaptureQuery(e.ds, q, res.Algorithm)
			// The tree snapshot allocates; WouldRetain gates it so fast
			// queries never pay for a trace nobody will look at.
			rec.Spans = opt.Spans.Snapshot()
		}
	} else {
		rec.Skew = opt.Spans.Skew()
		rec.LatencyNS = int64(time.Since(start))
		rec.Algorithm = algo.String()
		if ctx.Err() != nil {
			rec.Outcome = flight.OutcomeTimeout
		} else {
			rec.Outcome = flight.OutcomeError
		}
	}
	fr.ObserveAndLog(&rec)
	return res, err
}

// CaptureQuery encodes a validated query as a replayable flight capture:
// categories by name, pinned objects by dataset ID, parameters as
// normalized — everything `seqbench -exp replay` needs to reconstruct
// and rerun it against a dataset rebuilt from the same provenance.
// Queries with a custom distance metric are not capturable (a metric has
// no canonical encoding) and yield nil.
func CaptureQuery(ds *dataset.Dataset, q *query.Query, algo Algorithm) *flight.Capture {
	if q.Example.Metric != nil {
		return nil
	}
	c := &flight.Capture{
		Variant:   q.Variant.String(),
		Algorithm: algo.String(),
		K:         q.Params.K,
		Alpha:     q.Params.Alpha,
		Beta:      q.Params.Beta,
		GridD:     q.Params.GridD,
		Xi:        q.Params.Xi,
		Dims:      make([]flight.CapturedDim, q.Example.M()),
	}
	if len(q.Example.SkipPairs) > 0 {
		c.SkipPairs = slices.Clone(q.Example.SkipPairs)
	}
	for d := 0; d < q.Example.M(); d++ {
		dim := flight.CapturedDim{
			X:        q.Example.Locations[d].X,
			Y:        q.Example.Locations[d].Y,
			Category: ds.CategoryName(q.Example.Categories[d]),
			Attrs:    slices.Clone(q.Example.Attrs[d]),
		}
		if obj := q.Example.FixedDim(d); obj >= 0 {
			id := ds.Object(int(obj)).ID
			dim.FixedID = &id
		}
		c.Dims[d] = dim
	}
	return c
}

// search is the emission-free engine body Search wraps.
func (e *Engine) search(ctx context.Context, q *query.Query, algo Algorithm, opt Options) (*Result, error) {
	// Start the clock before validation so every traced phase falls
	// inside the Elapsed window (phase sum <= Elapsed on the
	// sequential path).
	start := time.Now()
	root := opt.Spans.Root("search")
	vsp := root.Child("validate")
	verr := q.Validate(e.ds)
	vsp.End()
	if verr != nil {
		root.End()
		return nil, verr
	}
	algo = Choose(e.ds, q, algo)
	var st *stats.Stats
	if opt.CollectStats {
		st = &stats.Stats{}
		opt.HSP.Stats = st
		opt.LORA.Stats = st
	}
	opt.HSP.Span = root
	opt.LORA.Span = root
	var (
		entries []topk.Entry
		err     error
	)
	switch algo {
	case BruteForce:
		bsp := root.Child("brute.search")
		entries = brute.Search(e.ds, q)
		bsp.End()
	case DFSPrune:
		entries, err = dfsprune.SearchObserved(ctx, e.ds, q, st, root)
	case HSP:
		entries, err = hsp.Search(ctx, e.ds, e.pix, q, opt.HSP)
	case LORA:
		entries, err = lora.Search(ctx, e.ds, e.pix, q, opt.LORA)
	default:
		root.End()
		return nil, fmt.Errorf("core: unsupported algorithm %v", algo)
	}
	root.End()
	if err != nil {
		return nil, err
	}
	res := &Result{Algorithm: algo, Elapsed: time.Since(start), Stats: st.Snapshot(), Skew: opt.Spans.Skew()}
	res.Tuples = make([]ResultTuple, len(entries))
	for i, en := range entries {
		res.Tuples[i] = ResultTuple{Positions: en.Tuple, Sim: en.Sim}
	}
	return res, nil
}

// Choose resolves Auto to the concrete algorithm for a validated query:
// the exact HSP, whatever the dataset or the query. Non-Auto algorithms
// pass through unchanged. Package-level so callers outside the engine
// resolve Auto exactly as Search does.
func Choose(_ *dataset.Dataset, _ *query.Query, algo Algorithm) Algorithm {
	if algo == Auto {
		return HSP
	}
	return algo
}

// SnapResult is one nearest-object match for an example-selection click.
type SnapResult struct {
	// Position is the object's dataset position.
	Position int32
	// Dist is the distance from the click to the object.
	Dist float64
}

// Snap returns the k dataset objects nearest to p, by distance and then
// position, optionally restricted to one category (pass
// dataset.NoCategory for no restriction). It backs the "example
// selection" interaction of the paper's Fig. 2: the user clicks map
// positions and the service snaps each click to a real object whose
// category and attributes seed the example.
func (e *Engine) Snap(p geo.Point, cat dataset.CategoryID, k int) []SnapResult {
	nbs := e.pix.Nearest(p, k, cat)
	out := make([]SnapResult, len(nbs))
	for i, nb := range nbs {
		out[i] = SnapResult{Position: nb.Pos, Dist: nb.Dist}
	}
	return out
}

// Similarities returns the result similarities best-first — the series the
// evaluation harness compares between algorithms.
func (r *Result) Similarities() []float64 {
	out := make([]float64, len(r.Tuples))
	for i, t := range r.Tuples {
		out[i] = t.Sim
	}
	return out
}
