// Experiment drivers: one function per paper table / figure (see the
// experiment index in DESIGN.md). Each driver generates its datasets and
// query sets, runs the algorithms under a time budget, and prints a
// paper-style table to the supplied writer. cmd/seqbench and the root
// benchmark suite are thin wrappers over these functions.
package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/bench"
	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/synth"
	"spatialseq/internal/vectormath"
	"spatialseq/internal/workload"
)

// Family selects which of the paper's two corpora a driver emulates.
type Family int

const (
	// Yelp emulates the Yelp Open Dataset (small extent, 1395 categories).
	Yelp Family = iota
	// Gaode emulates the Gaode POI dump (metropolitan extent, 20 categories).
	Gaode
)

// String implements fmt.Stringer.
func (f Family) String() string {
	if f == Yelp {
		return "Yelp"
	}
	return "Gaode"
}

// Config bundles the knobs shared by all experiment drivers. The defaults
// returned by DefaultConfig keep every driver laptop-friendly; raise Sizes
// and Budget to approach the paper's scale.
type Config struct {
	// QueryCount is the number of queries per measurement (paper: 100).
	QueryCount int
	// Budget is the total time allowed per (algorithm, dataset) cell;
	// exceeding it prints the paper's ">budget" marker.
	Budget time.Duration
	// Seed drives dataset and workload generation.
	Seed int64
	// Sizes are the dataset sizes of the scaling experiments.
	Sizes []int
	// M is the example tuple size (paper default 3).
	M int
	// Params are the query parameters (paper defaults via query.DefaultParams).
	Params query.Params
	// Rec, when non-nil, receives one machine-readable bench.Record per
	// (experiment, family, label, size, algorithm) measurement in
	// addition to the printed tables (`seqbench -json`).
	Rec *bench.Recorder
	// Capture is the flight-recorder capture file the replay experiment
	// re-runs (`seqbench -exp replay -capture <file>`).
	Capture string
}

// DefaultConfig returns laptop-scale settings that preserve the paper's
// comparative shape.
func DefaultConfig() Config {
	return Config{
		QueryCount: 20,
		Budget:     20 * time.Second,
		Seed:       1,
		Sizes:      []int{1000, 5000, 10000, 30000},
		M:          3,
		Params:     query.DefaultParams(),
	}
}

// familyDataset builds the synthetic corpus for family f at size n.
func familyDataset(f Family, n int, seed int64) (*dataset.Dataset, error) {
	if f == Yelp {
		return synth.Generate(synth.YelpLike(n, seed))
	}
	return synth.Generate(synth.GaodeLike(n, seed))
}

// familyWorkload mirrors the paper's query construction: random draws on
// Yelp's small extent, distance-bounded draws on Gaode's large extent.
func familyWorkload(f Family, cfg Config) workload.Config {
	wc := workload.Config{
		Count:      cfg.QueryCount,
		M:          cfg.M,
		Params:     cfg.Params,
		Variant:    query.CSEQ,
		AttrJitter: 0.1, // users state desired attributes, not exact copies
		LocJitter:  0.3, // users click approximate map positions
		Seed:       cfg.Seed + 1000,
	}
	if f == Gaode {
		wc.Mode = workload.DistanceBounded
		wc.Scale = 10 // kilometres on the 400 km extent
		wc.AttrJitter = 0.1
		wc.LocJitter = 1.0
	}
	return wc
}

func fmtTime(r *AlgoRun, budget time.Duration) string {
	if r.Err != nil {
		// engine failure, not slowness: render distinctly from ">budget"
		if r.Completed() == 0 {
			return "error"
		}
		return fmt.Sprintf("%.3fs!", r.MeanTime().Seconds()) // partial: aborted on error
	}
	if r.TimedOut && r.Completed() == 0 {
		return fmt.Sprintf(">%s", budget)
	}
	suffix := ""
	if r.TimedOut {
		suffix = "*" // partial: mean over the completed prefix
	}
	return fmt.Sprintf("%.3fs%s", r.MeanTime().Seconds(), suffix)
}

// fmtPctl renders a nearest-rank latency percentile over completed
// queries, "-" when none completed.
func fmtPctl(r *AlgoRun, p float64) string {
	if r.Completed() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", r.Percentile(p).Seconds())
}

func fmtSpeedup(base, fast *AlgoRun, budget time.Duration) string {
	if fast.Completed() == 0 {
		return "-"
	}
	if base.Completed() == 0 {
		// the baseline burned its whole budget on one unfinished query,
		// so the budget itself lower-bounds its per-query cost
		return fmt.Sprintf(">%.0fx", float64(budget)/math.Max(float64(fast.MeanTime()), 1))
	}
	return fmt.Sprintf("%.1fx", Speedup(base, fast))
}

// Table2 reproduces Table II for one family: per dataset size, the mean
// per-query cost of DFS-Prune, HSP and LORA, plus LORA's MAE against the
// exact results and its speedup over DFS-Prune.
func Table2(ctx context.Context, w io.Writer, f Family, cfg Config) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Table II (%s-like): per-query cost and LORA accuracy\n", f)
	rp.println(tw, "#POIs\tDFS-Prune\tHSP\tLORA\tLORA p99\tLORA MAE\tLORA Speedup")
	for _, n := range cfg.Sizes {
		ds, err := familyDataset(f, n, cfg.Seed)
		if err != nil {
			return err
		}
		queries, err := workload.Generate(ds, familyWorkload(f, cfg))
		if err != nil {
			return err
		}
		eng := core.NewEngine(ds)
		dfs := RunQueries(ctx, eng, queries, core.DFSPrune, core.Options{}, cfg.Budget)
		hsp := RunQueries(ctx, eng, queries, core.HSP, core.Options{}, cfg.Budget)
		lora := RunQueries(ctx, eng, queries, core.LORA, core.Options{}, cfg.Budget)
		mae := "-"
		var loraErrs *vectormath.Stats
		if hsp.Completed() > 0 && lora.Completed() > 0 {
			st := ErrorStats(hsp, lora)
			loraErrs = &st
			mae = fmt.Sprintf("%.5f", st.Mean)
		}
		recordRun(cfg, "table2", f, "", n, dfs, nil)
		recordRun(cfg, "table2", f, "", n, hsp, nil)
		recordRun(cfg, "table2", f, "", n, lora, loraErrs)
		rp.printf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			n, fmtTime(dfs, cfg.Budget), fmtTime(hsp, cfg.Budget), fmtTime(lora, cfg.Budget),
			fmtPctl(lora, 99), mae, fmtSpeedup(dfs, lora, cfg.Budget))
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return rp.flush(tw)
}

// Table3 reproduces Table III: the STD and MAX of LORA's similarity errors
// against the exact results, per dataset size.
func Table3(ctx context.Context, w io.Writer, f Family, cfg Config) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Table III (%s-like): LORA worst-case error statistics\n", f)
	rp.println(tw, "#POIs\tMAE\tSTD\tMAX")
	for _, n := range cfg.Sizes {
		ds, err := familyDataset(f, n, cfg.Seed)
		if err != nil {
			return err
		}
		queries, err := workload.Generate(ds, familyWorkload(f, cfg))
		if err != nil {
			return err
		}
		eng := core.NewEngine(ds)
		hsp := RunQueries(ctx, eng, queries, core.HSP, core.Options{}, cfg.Budget)
		lora := RunQueries(ctx, eng, queries, core.LORA, core.Options{}, cfg.Budget)
		recordRun(cfg, "table3", f, "", n, hsp, nil)
		if hsp.Completed() == 0 || lora.Completed() == 0 {
			recordRun(cfg, "table3", f, "", n, lora, nil)
			rp.printf(tw, "%d\t-\t-\t-\n", n)
			continue
		}
		st := ErrorStats(hsp, lora)
		recordRun(cfg, "table3", f, "", n, lora, &st)
		rp.printf(tw, "%d\t%.5f\t%.5f\t%.5f\n", n, st.Mean, st.Std, st.Max)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return rp.flush(tw)
}

// sweepRow measures all three algorithms on one query set.
type sweepRow struct {
	label string
	dfs   *AlgoRun
	hsp   *AlgoRun
	lora  *AlgoRun
}

func printSweep(w io.Writer, title string, rows []sweepRow, budget time.Duration) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.println(w, title)
	rp.println(tw, "param\tDFS-Prune t\tHSP t\tLORA t\tDFS-Prune sim\tHSP sim\tLORA sim")
	for _, r := range rows {
		rp.printf(tw, "%s\t%s\t%s\t%s\t%.4f\t%.4f\t%.4f\n",
			r.label, fmtTime(r.dfs, budget), fmtTime(r.hsp, budget), fmtTime(r.lora, budget),
			r.dfs.AvgSim(), r.hsp.AvgSim(), r.lora.AvgSim())
	}
	return rp.flush(tw)
}

// runThree executes the three algorithms on one engine + query set.
func runThree(ctx context.Context, eng *core.Engine, queries []*query.Query, cfg Config) sweepRow {
	return sweepRow{
		dfs:  RunQueries(ctx, eng, queries, core.DFSPrune, core.Options{}, cfg.Budget),
		hsp:  RunQueries(ctx, eng, queries, core.HSP, core.Options{}, cfg.Budget),
		lora: RunQueries(ctx, eng, queries, core.LORA, core.Options{}, cfg.Budget),
	}
}

// recordSweepRow appends bench records for all three algorithms of one
// sweep row, labeled by the row's sweep point.
func recordSweepRow(cfg Config, exp string, f Family, size int, r sweepRow) {
	recordRun(cfg, exp, f, r.label, size, r.dfs, nil)
	recordRun(cfg, exp, f, r.label, size, r.hsp, nil)
	recordRun(cfg, exp, f, r.label, size, r.lora, nil)
}

// Fig9GridD reproduces Fig. 9(a.*): LORA's cost and similarity as the grid
// resolution D grows, with HSP and DFS-Prune as flat exact references.
func Fig9GridD(ctx context.Context, w io.Writer, f Family, n int, cfg Config, ds []int) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	queries, err := workload.Generate(data, familyWorkload(f, cfg))
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	dfs := RunQueries(ctx, eng, queries, core.DFSPrune, core.Options{}, cfg.Budget)
	hsp := RunQueries(ctx, eng, queries, core.HSP, core.Options{}, cfg.Budget)
	recordRun(cfg, "fig9-d", f, "", n, dfs, nil)
	recordRun(cfg, "fig9-d", f, "", n, hsp, nil)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Fig 9(a) (%s-like, %d POIs): grid resolution sweep\n", f, n)
	rp.printf(w, "references: DFS-Prune %s (sim %.4f), HSP %s (sim %.4f)\n",
		fmtTime(dfs, cfg.Budget), dfs.AvgSim(), fmtTime(hsp, cfg.Budget), hsp.AvgSim())
	rp.println(tw, "D\tLORA t\tLORA sim")
	for _, d := range ds {
		qcopy := make([]*query.Query, len(queries))
		for i, q := range queries {
			qq := *q
			qq.Params.GridD = d
			qcopy[i] = &qq
		}
		lora := RunQueries(ctx, eng, qcopy, core.LORA, core.Options{}, cfg.Budget)
		recordRun(cfg, "fig9-d", f, fmt.Sprintf("D=%d", d), n, lora, nil)
		rp.printf(tw, "%d\t%s\t%.4f\n", d, fmtTime(lora, cfg.Budget), lora.AvgSim())
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return rp.flush(tw)
}

// ParamSweep covers Fig. 9(c) alpha, Fig. 9(d) beta, and the technical
// report's k and m sweeps: it varies one parameter and reruns all three
// algorithms.
type ParamKind int

const (
	SweepAlpha ParamKind = iota
	SweepBeta
	SweepK
	SweepM
)

func (p ParamKind) String() string {
	switch p {
	case SweepAlpha:
		return "alpha"
	case SweepBeta:
		return "beta"
	case SweepK:
		return "k"
	case SweepM:
		return "m"
	default:
		return "?"
	}
}

// Fig9Param reproduces one parameter sweep panel of Fig. 9.
func Fig9Param(ctx context.Context, w io.Writer, f Family, n int, cfg Config, kind ParamKind, values []float64) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	var rows []sweepRow
	for _, v := range values {
		c := cfg
		switch kind {
		case SweepAlpha:
			c.Params.Alpha = v
		case SweepBeta:
			c.Params.Beta = v
		case SweepK:
			c.Params.K = int(v)
		case SweepM:
			c.M = int(v)
		}
		queries, err := workload.Generate(data, familyWorkload(f, c))
		if err != nil {
			return err
		}
		row := runThree(ctx, eng, queries, c)
		row.label = fmt.Sprintf("%s=%g", kind, v)
		recordSweepRow(cfg, fmt.Sprintf("fig9-%s", kind), f, n, row)
		rows = append(rows, row)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return printSweep(w, fmt.Sprintf("Fig 9 (%s-like, %d POIs): %s sweep", f, n, kind), rows, cfg.Budget)
}

// Fig9Scale reproduces Fig. 9(f.*): performance versus the example scale
// ||V_t*||.
func Fig9Scale(ctx context.Context, w io.Writer, f Family, n int, cfg Config, targets []float64) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	sets, err := workload.ScaledExamples(data, cfg.QueryCount, cfg.M, cfg.Params, targets, cfg.Seed+2000)
	if err != nil {
		return err
	}
	var rows []sweepRow
	for _, target := range targets {
		row := runThree(ctx, eng, sets[target], cfg)
		row.label = fmt.Sprintf("scale=%g", target)
		recordSweepRow(cfg, "fig9-scale", f, n, row)
		rows = append(rows, row)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return printSweep(w, fmt.Sprintf("Fig 9(f) (%s-like, %d POIs): example scale sweep", f, n), rows, cfg.Budget)
}

// Fig10 reproduces the SEQ frontier: with beta=inf, LORA's (time,
// similarity) trade-off across D in [1,10] against the exact DFS-Prune
// reference, per dataset size.
func Fig10(ctx context.Context, w io.Writer, cfg Config, sizes []int, ds []int) error {
	for _, n := range sizes {
		data, err := familyDataset(Gaode, n, cfg.Seed)
		if err != nil {
			return err
		}
		wc := familyWorkload(Gaode, cfg)
		wc.Variant = query.SEQ
		queries, err := workload.Generate(data, wc)
		if err != nil {
			return err
		}
		eng := core.NewEngine(data)
		dfs := RunQueries(ctx, eng, queries, core.DFSPrune, core.Options{}, cfg.Budget)
		recordRun(cfg, "fig10", Gaode, "", n, dfs, nil)
		rp := &report{}
		rp.printf(w, "Fig 10 (Gaode-like, %d POIs, SEQ): DFS-Prune %s (sim %.4f)\n",
			n, fmtTime(dfs, cfg.Budget), dfs.AvgSim())
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		rp.println(tw, "D\tLORA t\tLORA sim")
		for _, d := range ds {
			qcopy := make([]*query.Query, len(queries))
			for i, q := range queries {
				qq := *q
				qq.Params.GridD = d
				qcopy[i] = &qq
			}
			lora := RunQueries(ctx, eng, qcopy, core.LORA, core.Options{}, cfg.Budget)
			recordRun(cfg, "fig10", Gaode, fmt.Sprintf("D=%d", d), n, lora, nil)
			rp.printf(tw, "%d\t%s\t%.4f\n", d, fmtTime(lora, cfg.Budget), lora.AvgSim())
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := rp.flush(tw); err != nil {
			return err
		}
	}
	return nil
}

// Fig11 reproduces the CSEQ-FP comparison: size-5 examples with two pinned
// points, all three algorithms, per dataset size. An extra LORA+A3 column
// shows the cell-norm filter taming the cell-tuple blowup at m=5.
func Fig11(ctx context.Context, w io.Writer, cfg Config, sizes []int) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.println(w, "Fig 11 (Gaode-like, CSEQ-FP m=5, two pins)")
	rp.println(tw, "n\tDFS-Prune t\tHSP t\tLORA t\tLORA+A3 t\tDFS sim\tHSP sim\tLORA sim\tLORA+A3 sim")
	for _, n := range sizes {
		data, err := familyDataset(Gaode, n, cfg.Seed)
		if err != nil {
			return err
		}
		c := cfg
		c.M = 5
		wc := familyWorkload(Gaode, c)
		wc.Variant = query.CSEQFP
		wc.FixedDims = []int{0, 2}
		queries, err := workload.Generate(data, wc)
		if err != nil {
			return err
		}
		eng := core.NewEngine(data)
		row := runThree(ctx, eng, queries, c)
		loraA3 := RunQueries(ctx, eng, queries, core.LORA, core.Options{LORA: lora.Options{PruneCellNorm: true}}, cfg.Budget)
		recordSweepRow(c, "fig11", Gaode, n, row)
		recordRun(c, "fig11", Gaode, "A3", n, loraA3, nil)
		rp.printf(tw, "%d\t%s\t%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%.4f\n",
			n, fmtTime(row.dfs, cfg.Budget), fmtTime(row.hsp, cfg.Budget),
			fmtTime(row.lora, cfg.Budget), fmtTime(loraA3, cfg.Budget),
			row.dfs.AvgSim(), row.hsp.AvgSim(), row.lora.AvgSim(), loraA3.AvgSim())
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return rp.flush(tw)
}

// AblationPartition isolates HSP's partitioning gain (A1): HSP with and
// without hierarchical space partitioning.
func AblationPartition(ctx context.Context, w io.Writer, f Family, n int, cfg Config) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	queries, err := workload.Generate(data, familyWorkload(f, cfg))
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	on := RunQueries(ctx, eng, queries, core.HSP, core.Options{}, cfg.Budget)
	off := RunQueries(ctx, eng, queries, core.HSP, core.Options{HSP: hsp.Options{DisablePartition: true}}, cfg.Budget)
	recordRun(cfg, "ablation-partition", f, "partitioned", n, on, nil)
	recordRun(cfg, "ablation-partition", f, "whole-space", n, off, nil)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Ablation A1 (%s-like, %d POIs): HSP space partitioning\n", f, n)
	rp.println(tw, "variant\ttime\tsim")
	rp.printf(tw, "partitioned\t%s\t%.4f\n", fmtTime(on, cfg.Budget), on.AvgSim())
	rp.printf(tw, "whole-space\t%s\t%.4f\n", fmtTime(off, cfg.Budget), off.AvgSim())
	return rp.flush(tw)
}

// AblationBounds isolates HSP's refined bounds (A4).
func AblationBounds(ctx context.Context, w io.Writer, f Family, n int, cfg Config) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	queries, err := workload.Generate(data, familyWorkload(f, cfg))
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	refined := RunQueries(ctx, eng, queries, core.HSP, core.Options{}, cfg.Budget)
	loose := RunQueries(ctx, eng, queries, core.HSP, core.Options{HSP: hsp.Options{LooseBounds: true}}, cfg.Budget)
	recordRun(cfg, "ablation-bounds", f, "refined", n, refined, nil)
	recordRun(cfg, "ablation-bounds", f, "loose", n, loose, nil)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Ablation A4 (%s-like, %d POIs): HSP bound refinement\n", f, n)
	rp.println(tw, "variant\ttime\tsim")
	rp.printf(tw, "refined (Eq6+Eq9)\t%s\t%.4f\n", fmtTime(refined, cfg.Budget), refined.AvgSim())
	rp.printf(tw, "loose (DFS-Prune)\t%s\t%.4f\n", fmtTime(loose, cfg.Budget), loose.AvgSim())
	return rp.flush(tw)
}

// AblationSampling compares query-dependent against random sampling across
// sampling budgets (A2, the Fig. 4 motivation).
func AblationSampling(ctx context.Context, w io.Writer, f Family, n int, cfg Config, xis []int) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Ablation A2 (%s-like, %d POIs): sampling strategy\n", f, n)
	rp.println(tw, "xi\tquery-dependent sim\trandom sim\tquery-dependent t\trandom t")
	for _, xi := range xis {
		c := cfg
		c.Params.Xi = xi
		queries, err := workload.Generate(data, familyWorkload(f, c))
		if err != nil {
			return err
		}
		qd := RunQueries(ctx, eng, queries, core.LORA, core.Options{}, cfg.Budget)
		rnd := RunQueries(ctx, eng, queries, core.LORA, core.Options{LORA: lora.Options{RandomSample: true, RandomSeed: cfg.Seed}}, cfg.Budget)
		recordRun(cfg, "ablation-sampling", f, fmt.Sprintf("xi=%d/query-dependent", xi), n, qd, nil)
		recordRun(cfg, "ablation-sampling", f, fmt.Sprintf("xi=%d/random", xi), n, rnd, nil)
		rp.printf(tw, "%d\t%.4f\t%.4f\t%s\t%s\n",
			xi, qd.AvgSim(), rnd.AvgSim(), fmtTime(qd, cfg.Budget), fmtTime(rnd, cfg.Budget))
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return rp.flush(tw)
}

// AblationCellNorm measures the optional cell-level norm filter (A3).
func AblationCellNorm(ctx context.Context, w io.Writer, f Family, n int, cfg Config) error {
	data, err := familyDataset(f, n, cfg.Seed)
	if err != nil {
		return err
	}
	queries, err := workload.Generate(data, familyWorkload(f, cfg))
	if err != nil {
		return err
	}
	eng := core.NewEngine(data)
	off := RunQueries(ctx, eng, queries, core.LORA, core.Options{}, cfg.Budget)
	on := RunQueries(ctx, eng, queries, core.LORA, core.Options{LORA: lora.Options{PruneCellNorm: true}}, cfg.Budget)
	recordRun(cfg, "ablation-cellnorm", f, "off", n, off, nil)
	recordRun(cfg, "ablation-cellnorm", f, "on", n, on, nil)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	rp := &report{}
	rp.printf(w, "Ablation A3 (%s-like, %d POIs): LORA cell-level norm filter\n", f, n)
	rp.println(tw, "variant\ttime\tsim")
	rp.printf(tw, "off (paper LORA)\t%s\t%.4f\n", fmtTime(off, cfg.Budget), off.AvgSim())
	rp.printf(tw, "on\t%s\t%.4f\n", fmtTime(on, cfg.Budget), on.AvgSim())
	return rp.flush(tw)
}
