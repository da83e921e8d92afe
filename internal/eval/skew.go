package eval

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"spatialseq/internal/bench"
	"spatialseq/internal/core"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/query"
	"spatialseq/internal/workload"
)

// SkewBaseline runs both families' workloads with hierarchical span
// tracing under parallel subspace workers and prints the per-family
// imbalance report: how unevenly the worker lanes are loaded, what share
// of the wall time is irreducible critical path, how dominant the largest
// subspace's candidate load is, and which subspace index stalls the tail
// most often. When cfg.Rec is attached, each (family, algorithm) cell
// also emits a bench record whose gauges carry the imbalance/share
// aggregates, so benchdiff gates skew regressions alongside latency. The
// EXPERIMENTS.md S1 numbers were this report before work stealing; a
// steal-enabled run must pull the imbalance ratio toward 1 without
// moving the critical-path share.
func SkewBaseline(ctx context.Context, w io.Writer, cfg Config) error {
	// At least 4 lanes even on small hosts: on a single-core machine the
	// workers time-share the CPU, so the imbalance ratio degrades to a
	// work-distribution signal — still exactly what work stealing evens
	// out — instead of a true parallel wall-time ratio.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	n := cfg.Sizes[0]
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Subspace skew baseline (%d workers, %d POIs, up to %d queries per cell)\n",
		workers, n, cfg.QueryCount)
	rp.println(tw, "family\talgo\tqueries\timb mean\timb max\tcrit-path\tmax-sub load\tstraggler (mode)")
	for _, f := range []Family{Yelp, Gaode} {
		data, err := familyDataset(f, n, cfg.Seed)
		if err != nil {
			return err
		}
		queries, err := workload.Generate(data, familyWorkload(f, cfg))
		if err != nil {
			return err
		}
		eng := core.NewEngine(data)
		for _, algo := range []core.Algorithm{core.HSP, core.LORA} {
			agg, err := runSkew(ctx, eng, queries, algo, workers, cfg.Budget)
			if err != nil {
				return err
			}
			if agg.ran == 0 {
				rp.printf(tw, "%s\t%s\t(no query finished within %s)\t\t\t\t\t\n", f, algo, cfg.Budget)
				continue
			}
			rp.printf(tw, "%s\t%s\t%d\t%.2f\t%.2f\t%.1f%%\t%.1f%%\t%s\n",
				f, algo, agg.ran,
				agg.imbSum/float64(agg.skewed), agg.imbMax,
				100*agg.critShareSum/float64(agg.skewed),
				100*agg.maxSubShareSum/float64(agg.ran),
				modeLabel(agg.stragglers))
			recordSkew(cfg, f, n, algo, agg)
		}
	}
	return rp.flush(tw)
}

// skewAgg accumulates per-query skew reports for one (family, algorithm)
// cell.
type skewAgg struct {
	ran            int       // queries completed
	skewed         int       // queries that produced a skew report
	imbSum, imbMax float64   // imbalance ratio
	critShareSum   float64   // critical path / span extent
	maxSubShareSum float64   // largest subspace's candidates / all candidates
	stragglers     []int32   // straggler subspace per query
	latenciesMS    []float64 // per-query wall time
}

// recordSkew emits one bench record per (family, algorithm) cell. The
// skew aggregates travel as gauges, not work counters: they are derived
// float ratios, and the parallel counter totals underneath them are not
// run-deterministic, so only the gauges and latencies are gate-worthy.
func recordSkew(cfg Config, f Family, size int, algo core.Algorithm, agg skewAgg) {
	if cfg.Rec == nil || agg.ran == 0 {
		return
	}
	gauges := map[string]float64{
		"max_subspace_load_share": agg.maxSubShareSum / float64(agg.ran),
	}
	if agg.skewed > 0 {
		gauges["imbalance_mean"] = agg.imbSum / float64(agg.skewed)
		gauges["imbalance_max"] = agg.imbMax
		gauges["critical_path_share"] = agg.critShareSum / float64(agg.skewed)
	}
	cfg.Rec.Add(bench.Record{
		Experiment: "skew",
		Family:     f.String(),
		Size:       size,
		Algorithm:  algo.String(),
		Queries:    agg.ran,
		Completed:  agg.ran,
		Latency:    bench.LatencyOf(agg.latenciesMS),
		Gauges:     gauges,
	})
}

// runSkew runs queries under algo with a fresh span tracer each, until
// the budget expires, and aggregates the skew reports.
func runSkew(ctx context.Context, eng *core.Engine, queries []*query.Query, algo core.Algorithm, workers int, budget time.Duration) (skewAgg, error) {
	warmPartitions(eng, queries)
	deadline := time.Now().Add(budget)
	var agg skewAgg
	for _, q := range queries {
		if time.Now().After(deadline) {
			break
		}
		qctx, cancel := context.WithDeadline(ctx, deadline)
		qq := *q
		// Work stealing records one span per stolen chunk, so a skewed
		// query can need far more than the default 512-node arena.
		tr := span.NewTracerLimits(8192, 0)
		opt := core.Options{CollectStats: true, Spans: tr}
		opt.HSP.Parallelism = workers
		opt.LORA.Parallelism = workers
		start := time.Now()
		res, err := eng.Search(qctx, &qq, algo, opt)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			if qctx.Err() != nil && ctx.Err() == nil {
				break // budget exhausted mid-query; keep what we have
			}
			return agg, err
		}
		agg.ran++
		agg.latenciesMS = append(agg.latenciesMS, float64(elapsed)/float64(time.Millisecond))
		if res.Stats.Candidates > 0 {
			agg.maxSubShareSum += float64(res.Stats.SubspaceCandidatesMax) / float64(res.Stats.Candidates)
		}
		sk := res.Skew
		if sk == nil {
			continue
		}
		agg.skewed++
		agg.imbSum += sk.ImbalanceRatio
		if sk.ImbalanceRatio > agg.imbMax {
			agg.imbMax = sk.ImbalanceRatio
		}
		if sk.SpanMS > 0 {
			agg.critShareSum += sk.CriticalPathMS / sk.SpanMS
		}
		if sk.StragglerSubspace >= 0 {
			agg.stragglers = append(agg.stragglers, sk.StragglerSubspace)
		}
	}
	return agg, nil
}

// modeLabel returns "subspace xN" for the most frequent straggler
// subspace (ties to the smallest index), or "-" when none was tagged.
func modeLabel(ids []int32) string {
	if len(ids) == 0 {
		return "-"
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	best, bestCount := ids[0], 1
	cur, count := ids[0], 1
	for _, id := range ids[1:] {
		if id == cur {
			count++
		} else {
			cur, count = id, 1
		}
		if count > bestCount {
			best, bestCount = cur, count
		}
	}
	return fmt.Sprintf("#%d x%d", best, bestCount)
}
