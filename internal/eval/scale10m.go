package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

// Scale10MSize is the POI count of the large-scale smoke experiment —
// the Gaode-like scale the paper targets and ROADMAP's north star names
// ("interactive latency on a 10M-POI Gaode-like dataset").
const Scale10MSize = 10_000_000

// Scale10M is the first experiment to actually exercise internal/synth
// at the 10M-POI Gaode-like scale: generate the corpus, build the
// engine, and answer cfg.QueryCount queries with the parallel
// (work-stealing) LORA path plus a budget-bounded parallel exact HSP
// attempt for reference. It fails when LORA cannot complete a single
// query — the load-and-answer smoke contract — while HSP is allowed to
// burn its budget (it is the reference here, though at 10M it has
// answered in half LORA's time; EXPERIMENTS.md S2). With cfg.Rec
// attached it emits "scale10m" records,
// the BENCH series that pins this scale's latency over time.
//
// The run needs several GB of memory and minutes of wall time, so it is
// reached only through `seqbench -exp scale10m` (excluded from -exp
// all) or the SEQ_SCALE10M-gated test.
func Scale10M(ctx context.Context, w io.Writer, cfg Config) error {
	n := Scale10MSize
	rp := &report{}
	start := time.Now()
	data, err := synth.Generate(synth.GaodeLike(n, cfg.Seed))
	if err != nil {
		return err
	}
	genDur := time.Since(start)
	queries, err := workload.Generate(data, familyWorkload(Gaode, cfg))
	if err != nil {
		return err
	}
	start = time.Now()
	eng := core.NewEngine(data)
	buildDur := time.Since(start)
	rp.printf(w, "Scale smoke (Gaode-like, %d POIs): generate %s, engine build %s, %d queries, budget %s/cell\n",
		n, genDur.Round(time.Millisecond), buildDur.Round(time.Millisecond), len(queries), cfg.Budget)

	// Parallelism -1 = one worker per CPU; the stealing scheduler splits
	// each subspace's candidate range across them.
	parallel := func() core.Options {
		var opt core.Options
		opt.HSP.Parallelism = -1
		opt.LORA.Parallelism = -1
		return opt
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp.println(tw, "algo\tcompleted\tmean\tp99\tsim")
	lora := RunQueries(ctx, eng, queries, core.LORA, parallel(), cfg.Budget)
	recordRun(cfg, "scale10m", Gaode, "", n, lora, nil)
	rp.printf(tw, "%s\t%d/%d\t%s\t%s\t%.4f\n", core.LORA, lora.Completed(), lora.Attempted,
		fmtTime(lora, cfg.Budget), fmtPctl(lora, 99), lora.AvgSim())
	if err := ctx.Err(); err != nil {
		return err
	}
	hsp := RunQueries(ctx, eng, queries, core.HSP, parallel(), cfg.Budget)
	recordRun(cfg, "scale10m", Gaode, "", n, hsp, nil)
	rp.printf(tw, "%s\t%d/%d\t%s\t%s\t%.4f\n", core.HSP, hsp.Completed(), hsp.Attempted,
		fmtTime(hsp, cfg.Budget), fmtPctl(hsp, 99), hsp.AvgSim())
	if err := rp.flush(tw); err != nil {
		return err
	}
	if lora.Err != nil {
		return fmt.Errorf("scale10m: LORA errored after %d queries: %w", lora.Completed(), lora.Err)
	}
	if lora.Completed() == 0 {
		return fmt.Errorf("scale10m: no LORA query completed within %s at %d POIs", cfg.Budget, n)
	}
	return nil
}
