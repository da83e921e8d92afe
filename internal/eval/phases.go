package eval

import (
	"context"
	"io"
	"text/tabwriter"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/obs"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/workload"
)

// PhaseBreakdown runs the workload under each algorithm with phase
// tracing enabled and prints where the wall time goes — the same trace
// the server returns per request with include_stats, aggregated over a
// whole query set. It answers "which phase do I optimise next" the way
// Table II answers "which algorithm wins".
func PhaseBreakdown(ctx context.Context, w io.Writer, f Family, n int, cfg Config) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	queries, err := workload.Generate(data, familyWorkload(f, cfg))
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Phase breakdown (%s-like, %d POIs, up to %d queries per algorithm)\n", f, n, len(queries))
	rp.println(tw, "algo\tphase\ttotal\tcalls\tshare")
	for _, algo := range []core.Algorithm{core.DFSPrune, core.HSP, core.LORA} {
		tr := obs.NewTrace()
		ran, work, err := runTraced(ctx, eng, queries, algo, tr, cfg.Budget)
		if err != nil {
			return err
		}
		if ran == 0 {
			rp.printf(tw, "%s\t(no query finished within %s)\t\t\t\n", algo, cfg.Budget)
			continue
		}
		snap := tr.Snapshot()
		var total float64
		for _, p := range snap {
			total += p.DurationMS
		}
		for _, p := range snap {
			var share float64
			if total > 0 {
				share = 100 * p.DurationMS / total
			}
			rp.printf(tw, "%s\t%s\t%.2fms\t%d\t%.1f%%\n", algo, p.Name, p.DurationMS, p.Count, share)
		}
		// The simprep phase above says what the memo *cost*; the hit/miss
		// counters say what it *bought* (each hit is one cosine not
		// recomputed).
		if hits, misses := work.AttrSimMemoHits, work.AttrSimMemoMisses; hits+misses > 0 {
			rp.printf(tw, "%s\tattr-sim memo\thits %d\tmisses %d\t\n", algo, hits, misses)
		}
	}
	return rp.flush(tw)
}

// runTraced runs queries under algo until the budget expires, recording
// phases into tr. It returns how many queries completed and the summed
// work counters.
func runTraced(ctx context.Context, eng *core.Engine, queries []*query.Query, algo core.Algorithm, tr *obs.Trace, budget time.Duration) (int, stats.Snapshot, error) {
	warmPartitions(eng, queries)
	deadline := time.Now().Add(budget)
	ran := 0
	var work stats.Snapshot
	for _, q := range queries {
		if time.Now().After(deadline) {
			break
		}
		qctx, cancel := context.WithDeadline(ctx, deadline)
		qq := *q
		res, err := eng.Search(qctx, &qq, algo, core.Options{Trace: tr, CollectStats: true})
		cancel()
		if err != nil {
			if qctx.Err() != nil && ctx.Err() == nil {
				break // budget exhausted mid-query; keep what we have
			}
			return ran, work, err
		}
		work = work.Add(res.Stats)
		ran++
	}
	return ran, work, nil
}
