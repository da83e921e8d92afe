// Package eval runs algorithm comparisons over query sets and computes the
// metrics the paper reports: per-query cost, average top-k similarity,
// and the MAE / STD / MAX error statistics of the approximate algorithm
// against the exact one (Tables II and III).
package eval

import (
	"context"
	"math"
	"runtime"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/vectormath"
)

// QueryRun records one query execution.
type QueryRun struct {
	Sims    []float64
	Elapsed time.Duration
}

// AlgoRun aggregates one algorithm over a query set.
type AlgoRun struct {
	Algo core.Algorithm
	// Attempted is the size of the query set the run was given.
	Attempted int
	// Runs holds one entry per completed query, aligned with the query
	// set prefix [0, Completed).
	Runs []QueryRun
	// TimedOut reports that the budget expired before all queries ran —
	// the ">24hours" cells of Table II. It is set only on deadline or
	// context expiry; engine errors land in Err instead.
	TimedOut bool
	// Err is the engine error that aborted the run, if any. The completed
	// prefix before the failure is retained.
	Err error
	// Total is the wall time spent on completed queries.
	Total time.Duration
	// Work accumulates the engine's per-search counters over all
	// completed queries.
	Work stats.Snapshot
	// Allocation deltas over the whole run, from runtime.ReadMemStats
	// taken before and after the query loop. HeapDeltaBytes can be
	// negative when a GC ran mid-measurement.
	AllocBytes     int64
	Mallocs        int64
	HeapDeltaBytes int64
}

// Completed returns the number of queries that finished.
func (a *AlgoRun) Completed() int { return len(a.Runs) }

// MeanTime returns the average per-query cost over completed queries.
func (a *AlgoRun) MeanTime() time.Duration {
	if len(a.Runs) == 0 {
		return 0
	}
	return a.Total / time.Duration(len(a.Runs))
}

// Percentile returns the nearest-rank p-th percentile of per-query cost
// over completed queries (p in percent; 50 is the median, 100 the max).
func (a *AlgoRun) Percentile(p float64) time.Duration {
	if len(a.Runs) == 0 {
		return 0
	}
	xs := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		xs[i] = float64(r.Elapsed)
	}
	return time.Duration(vectormath.Percentiles(xs, p)[0])
}

// LatenciesMS returns the per-query costs in milliseconds, in execution
// order — the sample the bench records summarize.
func (a *AlgoRun) LatenciesMS() []float64 {
	out := make([]float64, len(a.Runs))
	for i, r := range a.Runs {
		out[i] = float64(r.Elapsed) / float64(time.Millisecond)
	}
	return out
}

// AvgSim returns the mean of all result similarities across completed
// queries (the "average similarity" series of Figs. 9-11).
func (a *AlgoRun) AvgSim() float64 {
	var sum float64
	var n int
	for _, r := range a.Runs {
		for _, s := range r.Sims {
			sum += s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunQueries executes the query set with one algorithm under a total time
// budget. A budget of 0 means unlimited. When the budget expires the run
// is cut short with TimedOut=true and the completed prefix retained; an
// engine error likewise cuts the run short but lands in Err, so callers
// can tell a slow algorithm from a broken query. The run always collects
// the engine's work counters (Work) and allocation deltas. eng is any
// core.Searcher — a single engine or the sharded coordinator. The run
// starts from a warm partition cache (see warmPartitions).
func RunQueries(ctx context.Context, eng core.Searcher, queries []*query.Query, algo core.Algorithm, opt core.Options, budget time.Duration) *AlgoRun {
	run := &AlgoRun{Algo: algo, Attempted: len(queries)}
	opt.CollectStats = true
	warmPartitions(eng, queries)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Time{}
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}
	for _, q := range queries {
		qctx := ctx
		var cancel context.CancelFunc
		if !deadline.IsZero() {
			if !time.Now().Before(deadline) {
				run.TimedOut = true
				break
			}
			qctx, cancel = context.WithDeadline(ctx, deadline)
		}
		qq := *q // Search normalizes params in place; keep callers' copy pristine
		res, err := eng.Search(qctx, &qq, algo, opt)
		// Read the context state before cancel(): afterwards qctx.Err()
		// reports Canceled for every outcome, masking engine errors.
		budgetExpired := ctx.Err() != nil || qctx.Err() != nil
		if cancel != nil {
			cancel()
		}
		if err != nil {
			if budgetExpired {
				// deadline or caller cancellation: the ">budget" outcome
				run.TimedOut = true
			} else {
				// genuine engine failure (validation, unsupported variant):
				// a distinct outcome the tables render as "error"
				run.Err = err
			}
			break
		}
		run.Runs = append(run.Runs, QueryRun{Sims: res.Similarities(), Elapsed: res.Elapsed})
		run.Total += res.Elapsed
		run.Work = run.Work.Add(res.Stats)
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	run.AllocBytes = int64(m1.TotalAlloc - m0.TotalAlloc)
	run.Mallocs = int64(m1.Mallocs - m0.Mallocs)
	run.HeapDeltaBytes = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)
	return run
}

// warmPartitions builds, untimed, the partition of every radius bucket
// the queries use into a single engine's partition cache, where a
// long-running engine already holds them. Without it the first timed
// run on a fresh engine pays the partition builds that every later run
// skips. The sharded coordinator is left as it is.
func warmPartitions(eng core.Searcher, queries []*query.Query) {
	e, ok := eng.(*core.Engine)
	if !ok {
		return
	}
	ds, ix := e.Dataset(), e.PartitionIndex()
	for _, q := range queries {
		qq := *q
		if qq.Validate(ds) == nil {
			_, _ = ix.PartitionBucketed(simil.NewContext(ds, &qq).PartitionRadius())
		}
	}
}

// ErrorStats compares an approximate run against an exact run over the
// same query set and returns the paper's error statistics:
//
//	MAE — mean absolute similarity error across all (query, rank) pairs;
//	STD — standard deviation of those errors;
//	MAX — the largest single error.
//
// Ranks the approximate run is missing (it returned fewer tuples) count
// the exact similarity as the error. Only the overlap of completed
// queries is compared.
func ErrorStats(exact, approx *AlgoRun) vectormath.Stats {
	n := len(exact.Runs)
	if len(approx.Runs) < n {
		n = len(approx.Runs)
	}
	var errs []float64
	for i := 0; i < n; i++ {
		es, as := exact.Runs[i].Sims, approx.Runs[i].Sims
		for j := range es {
			var a float64
			if j < len(as) {
				a = as[j]
			}
			errs = append(errs, math.Abs(es[j]-a))
		}
	}
	return vectormath.Summarize(errs)
}

// Speedup returns how many times faster b ran than a (per mean query
// cost), or +Inf when b completed queries and a completed none.
func Speedup(a, b *AlgoRun) float64 {
	mb := b.MeanTime()
	if mb <= 0 {
		return math.Inf(1)
	}
	ma := a.MeanTime()
	if ma <= 0 && a.Completed() == 0 {
		return math.Inf(1)
	}
	return float64(ma) / float64(mb)
}
