// Command seqbench regenerates the paper's tables and figures (and this
// repository's ablation studies) from synthetic stand-in datasets.
//
// Usage:
//
//	seqbench -exp table2-gaode
//	seqbench -exp table2-gaode,table3 -json BENCH_1.json
//	seqbench -exp fig9-d -sizes 10000,50000 -queries 100 -budget 2m
//	seqbench -exp all -cpuprofile prof/cpu -memprofile prof/mem
//
// Each experiment prints a paper-style table; EXPERIMENTS.md records how
// the measured shapes compare with the published numbers. Budgets replace
// the paper's ">24hours" cut-offs.
//
// -json additionally writes a machine-readable BENCH file (schema in
// internal/bench): one record per measurement with nearest-rank latency
// percentiles, engine work counters, and allocation deltas, under an Env
// header pinning toolchain, host, git revision, and workload knobs.
// `benchdiff old.json new.json` turns two such files into a regression
// report. -cpuprofile/-memprofile capture one pprof profile per selected
// experiment at <prefix>.<exp>.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"spatialseq/internal/bench"
	"spatialseq/internal/eval"
	"spatialseq/internal/userstudy"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "seqbench:", err)
		os.Exit(1)
	}
}

type experiment struct {
	name string
	desc string
	run  func(ctx context.Context, w io.Writer, cfg eval.Config) error
}

// needsInput marks experiments that require an input file and are
// therefore excluded from "-exp all".
func (e experiment) needsInput() bool { return e.name == "replay" }

// heavy marks experiments whose resource footprint (gigabytes of
// memory, minutes of generation time) makes them opt-in: they run only
// when selected by name, never under "-exp all".
func (e experiment) heavy() bool { return e.name == "scale10m" }

func experiments() []experiment {
	return []experiment{
		{"table2-yelp", "Table II, Yelp-like scaling", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.Table2(ctx, w, eval.Yelp, cfg)
		}},
		{"table2-gaode", "Table II, Gaode-like scaling", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.Table2(ctx, w, eval.Gaode, cfg)
		}},
		{"table3", "Table III, LORA error statistics (both families)", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			if err := eval.Table3(ctx, w, eval.Yelp, cfg); err != nil {
				return err
			}
			return eval.Table3(ctx, w, eval.Gaode, cfg)
		}},
		{"fig9-d", "Fig 9(a), grid resolution sweep", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			for _, f := range []eval.Family{eval.Gaode, eval.Yelp} {
				for _, n := range firstTwo(cfg.Sizes) {
					if err := eval.Fig9GridD(ctx, w, f, n, cfg, seqInts(1, 10)); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"fig9-alpha", "Fig 9(c), alpha sweep", sweep(eval.SweepAlpha, []float64{0.1, 0.3, 0.5, 0.7, 0.9})},
		// beta starts at 1.2: beta=1 demands an exactly-equal norm, which
		// admits no tuple on continuous coordinates
		{"fig9-beta", "Fig 9(d), beta sweep", sweep(eval.SweepBeta, []float64{1.2, 3, 5, 7, 9})},
		{"fig9-k", "tech report k sweep", sweep(eval.SweepK, []float64{1, 3, 5, 7, 9})},
		{"fig9-m", "tech report m sweep", sweep(eval.SweepM, []float64{2, 3, 4, 5})},
		{"fig9-scale", "Fig 9(f), example scale sweep", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			for _, n := range firstTwo(cfg.Sizes) {
				if err := eval.Fig9Scale(ctx, w, eval.Gaode, n, cfg, []float64{2, 4, 8, 16, 32}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"fig10", "Fig 10, SEQ time/similarity frontier", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.Fig10(ctx, w, cfg, firstTwo(cfg.Sizes), seqInts(1, 10))
		}},
		{"fig11", "Fig 11, CSEQ-FP", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.Fig11(ctx, w, cfg, firstTwo(cfg.Sizes))
		}},
		{"phases", "per-phase wall-time breakdown (obs.Trace)", single(eval.PhaseBreakdown)},
		{"skew", "subspace-imbalance baseline from span tracing (parallel workers)", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.SkewBaseline(ctx, w, cfg)
		}},
		{"shard", "scatter-gather coordinator scaling across shard counts", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.ShardScaling(ctx, w, cfg)
		}},
		{"scale10m", "10M-POI Gaode-like load-and-answer smoke (heavy; not in 'all')", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.Scale10M(ctx, w, cfg)
		}},
		{"ablation-partition", "A1: HSP partitioning on/off", single(eval.AblationPartition)},
		{"ablation-bounds", "A4: HSP refined vs loose bounds", single(eval.AblationBounds)},
		{"ablation-sampling", "A2: query-dependent vs random sampling", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.AblationSampling(ctx, w, eval.Gaode, firstOf(cfg.Sizes), cfg, []int{1, 5, 10, 50})
		}},
		{"ablation-cellnorm", "A3: LORA cell norm filter", single(eval.AblationCellNorm)},
		{"userstudy", "Section IV-C simulated survey", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return userstudy.Simulate(cfg.Seed).Report(w)
		}},
		{"replay", "re-run a flight-recorder capture (-capture); work counters must match", func(ctx context.Context, w io.Writer, cfg eval.Config) error {
			return eval.Replay(ctx, w, cfg)
		}},
	}
}

func sweep(kind eval.ParamKind, values []float64) func(context.Context, io.Writer, eval.Config) error {
	return func(ctx context.Context, w io.Writer, cfg eval.Config) error {
		for _, f := range []eval.Family{eval.Gaode, eval.Yelp} {
			for _, n := range firstTwo(cfg.Sizes) {
				if err := eval.Fig9Param(ctx, w, f, n, cfg, kind, values); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func single(fn func(context.Context, io.Writer, eval.Family, int, eval.Config) error) func(context.Context, io.Writer, eval.Config) error {
	return func(ctx context.Context, w io.Writer, cfg eval.Config) error {
		return fn(ctx, w, eval.Gaode, firstOf(cfg.Sizes), cfg)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("seqbench", flag.ContinueOnError)
	expName := fs.String("exp", "", "comma-separated experiment ids (or 'all'); see -list")
	list := fs.Bool("list", false, "list experiment ids")
	sizesFlag := fs.String("sizes", "1000,5000,10000", "comma-separated dataset sizes")
	queries := fs.Int("queries", 20, "queries per measurement (paper: 100)")
	budget := fs.Duration("budget", 30*time.Second, "time budget per (algorithm, dataset) cell")
	seed := fs.Int64("seed", 1, "master seed")
	m := fs.Int("m", 3, "example tuple size")
	jsonPath := fs.String("json", "", "write machine-readable BENCH records to this file")
	capture := fs.String("capture", "", "flight-recorder capture file for -exp replay")
	cpuProfile := fs.String("cpuprofile", "", "write per-experiment CPU profiles to <prefix>.<exp>")
	memProfile := fs.String("memprofile", "", "write per-experiment heap profiles to <prefix>.<exp>")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exps := experiments()
	if *list || *expName == "" {
		fmt.Fprintln(w, "experiments:")
		for _, e := range exps {
			fmt.Fprintf(w, "  %-20s %s\n", e.name, e.desc)
		}
		fmt.Fprintln(w, "  all                  run everything")
		return nil
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		return err
	}
	cfg := eval.DefaultConfig()
	cfg.Sizes = sizes
	cfg.QueryCount = *queries
	cfg.Budget = *budget
	cfg.Seed = *seed
	cfg.M = *m
	cfg.Capture = *capture

	var rec *bench.Recorder
	if *jsonPath != "" {
		env := bench.CaptureEnv()
		env.Seed = *seed
		env.Queries = *queries
		env.BudgetMS = float64(*budget) / float64(time.Millisecond)
		env.Sizes = sizes
		env.M = *m
		rec = bench.NewRecorder(env)
		cfg.Rec = rec
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	selected, err := selectExperiments(exps, *expName)
	if err != nil {
		return err
	}
	for _, e := range selected {
		fmt.Fprintf(w, "== %s: %s ==\n", e.name, e.desc)
		start := time.Now()
		if err := profiled(*cpuProfile, *memProfile, e.name, func() error {
			return e.run(ctx, w, cfg)
		}); err != nil {
			// Flush what we measured so far: a failed (or interrupted)
			// experiment late in a long multi-experiment session must not
			// discard every record collected before it.
			if rec != nil && rec.Len() > 0 {
				if werr := bench.WriteFile(*jsonPath, rec.File()); werr != nil {
					fmt.Fprintf(os.Stderr, "seqbench: writing partial bench records: %v\n", werr)
				} else {
					fmt.Fprintf(w, "wrote %d partial bench records to %s\n", rec.Len(), *jsonPath)
				}
			}
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintf(w, "(%s finished in %s)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if rec != nil {
		if err := bench.WriteFile(*jsonPath, rec.File()); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d bench records to %s\n", rec.Len(), *jsonPath)
	}
	return nil
}

// selectExperiments resolves a comma-separated id list ("all" selects
// everything), preserving the requested order and dropping duplicates.
func selectExperiments(exps []experiment, names string) ([]experiment, error) {
	var selected []experiment
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		if name == "all" {
			// "all" means the self-contained affordable suite; experiments
			// that need an input file (replay) or a heavyweight corpus
			// (scale10m) must be selected explicitly.
			var out []experiment
			for _, e := range exps {
				if !e.needsInput() && !e.heavy() {
					out = append(out, e)
				}
			}
			return out, nil
		}
		found := false
		for _, e := range exps {
			if e.name == name {
				selected = append(selected, e)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q; use -list", name)
		}
		seen[name] = true
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no experiments selected; use -list")
	}
	return selected, nil
}

// profiled runs fn with optional per-experiment pprof capture: a CPU
// profile covering the whole experiment and a heap profile (after a
// forced GC) at its end, each written to <prefix>.<exp>.
func profiled(cpuPrefix, memPrefix, exp string, fn func() error) error {
	if cpuPrefix != "" {
		f, err := os.Create(cpuPrefix + "." + exp)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the create succeeded; the profile error wins
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close()
		}()
	}
	if err := fn(); err != nil {
		return err
	}
	if memPrefix != "" {
		f, err := os.Create(memPrefix + "." + exp)
		if err != nil {
			return err
		}
		runtime.GC() // settle the heap so the profile shows live objects
		werr := pprof.WriteHeapProfile(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	sort.Ints(out)
	return out, nil
}

func firstOf(sizes []int) int { return sizes[0] }

func firstTwo(sizes []int) []int {
	if len(sizes) > 2 {
		return sizes[:2]
	}
	return sizes
}

func seqInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}
