// Benchmarks regenerating the paper's evaluation artifacts (one benchmark
// family per table / figure; see the experiment index in DESIGN.md and the
// recorded results in EXPERIMENTS.md).
//
// Per-op work is one full query (including LORA's per-query partitioning
// and cell sorting, as the paper's timing does). Queries rotate through a
// fixed workload so b.N ops average over the query set. Custom metrics:
// "sim" is the average result similarity of the last op, "mae" the mean
// absolute error against the exact answer where measured.
//
// Dataset sizes here are laptop-scale; crank them up with cmd/seqbench for
// paper-scale runs.
package spatialseq_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/core"
	"spatialseq/internal/eval"
	"spatialseq/internal/query"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

type fixture struct {
	eng     *core.Engine
	queries []*query.Query
}

var (
	fixtureMu    sync.Mutex
	fixtureCache = map[string]*fixture{}
)

// getFixture builds (once) an engine + workload for a family/size/variant.
func getFixture(b *testing.B, family eval.Family, n int, wcMut func(*workload.Config)) *fixture {
	b.Helper()
	key := fmt.Sprintf("%v/%d/%p", family, n, wcMut)
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtureCache[key]; ok {
		return f
	}
	var cfg synth.Config
	if family == eval.Yelp {
		cfg = synth.YelpLike(n, 1)
	} else {
		cfg = synth.GaodeLike(n, 1)
	}
	ds, err := synth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wc := workload.Config{
		Count:   10,
		M:       3,
		Params:  query.DefaultParams(),
		Variant: query.CSEQ,
		Seed:    2,
	}
	if family == eval.Gaode {
		wc.Mode = workload.DistanceBounded
		wc.Scale = 10
	}
	if wcMut != nil {
		wcMut(&wc)
	}
	queries, err := workload.Generate(ds, wc)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{eng: core.NewEngine(ds), queries: queries}
	fixtureCache[key] = f
	return f
}

// runAlgo is the shared measurement loop: one op = one query.
func runAlgo(b *testing.B, f *fixture, algo core.Algorithm, opt core.Options) {
	b.Helper()
	ctx := context.Background()
	var lastSim float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := *f.queries[i%len(f.queries)]
		res, err := f.eng.Search(ctx, &q, algo, opt)
		if err != nil {
			b.Fatal(err)
		}
		var s float64
		for _, t := range res.Tuples {
			s += t.Sim
		}
		if len(res.Tuples) > 0 {
			lastSim = s / float64(len(res.Tuples))
		}
	}
	b.StopTimer()
	b.ReportMetric(lastSim, "sim")
}

// mutators must be package-level so fixture keys are stable.
var (
	wcSEQ = func(wc *workload.Config) { wc.Variant = query.SEQ }
	wcFP  = func(wc *workload.Config) {
		wc.M = 5
		wc.Variant = query.CSEQFP
		wc.FixedDims = []int{0, 2}
	}
)

// BenchmarkTable2 regenerates Table II's per-query costs. DFS-Prune is
// capped at the smallest size (it is the ">24hours" column at scale).
func BenchmarkTable2(b *testing.B) {
	for _, family := range []eval.Family{eval.Yelp, eval.Gaode} {
		for _, n := range []int{1000, 5000, 20000} {
			f := getFixture(b, family, n, nil)
			if n <= 1000 {
				b.Run(fmt.Sprintf("%v/n=%d/dfsprune", family, n), func(b *testing.B) {
					runAlgo(b, f, core.DFSPrune, core.Options{})
				})
			}
			b.Run(fmt.Sprintf("%v/n=%d/hsp", family, n), func(b *testing.B) {
				runAlgo(b, f, core.HSP, core.Options{})
			})
			b.Run(fmt.Sprintf("%v/n=%d/lora", family, n), func(b *testing.B) {
				runAlgo(b, f, core.LORA, core.Options{})
			})
		}
	}
}

// BenchmarkTable3 measures LORA with its MAE against the exact answer as a
// custom metric (Table III's error statistics).
func BenchmarkTable3(b *testing.B) {
	for _, family := range []eval.Family{eval.Yelp, eval.Gaode} {
		f := getFixture(b, family, 5000, nil)
		b.Run(fmt.Sprintf("%v/n=5000", family), func(b *testing.B) {
			ctx := context.Background()
			// exact references once, outside the timer
			exact := make([][]float64, len(f.queries))
			for i, q := range f.queries {
				qq := *q
				res, err := f.eng.Search(ctx, &qq, core.HSP, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				exact[i] = res.Similarities()
			}
			var errSum float64
			var errN int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qi := i % len(f.queries)
				qq := *f.queries[qi]
				res, err := f.eng.Search(ctx, &qq, core.LORA, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				sims := res.Similarities()
				for j, e := range exact[qi] {
					var a float64
					if j < len(sims) {
						a = sims[j]
					}
					errSum += math.Abs(e - a)
					errN++
				}
			}
			b.StopTimer()
			if errN > 0 {
				b.ReportMetric(errSum/float64(errN), "mae")
			}
		})
	}
}

// BenchmarkFig9GridD regenerates Fig. 9(a): LORA cost versus D.
func BenchmarkFig9GridD(b *testing.B) {
	f := getFixture(b, eval.Gaode, 20000, nil)
	for _, d := range []int{1, 2, 4, 6, 8, 10} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := *f.queries[i%len(f.queries)]
				q.Params.GridD = d
				if _, err := f.eng.Search(ctx, &q, core.LORA, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9Alpha regenerates Fig. 9(c): cost versus alpha.
func BenchmarkFig9Alpha(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, nil)
	for _, alpha := range []float64{0.1, 0.5, 0.9} {
		for _, algo := range []core.Algorithm{core.HSP, core.LORA} {
			b.Run(fmt.Sprintf("alpha=%g/%v", alpha, algo), func(b *testing.B) {
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := *f.queries[i%len(f.queries)]
					q.Params.Alpha = alpha
					if _, err := f.eng.Search(ctx, &q, algo, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9Beta regenerates Fig. 9(d): cost versus beta.
func BenchmarkFig9Beta(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, nil)
	for _, beta := range []float64{1, 3, 9} {
		for _, algo := range []core.Algorithm{core.HSP, core.LORA} {
			b.Run(fmt.Sprintf("beta=%g/%v", beta, algo), func(b *testing.B) {
				ctx := context.Background()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := *f.queries[i%len(f.queries)]
					q.Params.Beta = beta
					if _, err := f.eng.Search(ctx, &q, algo, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9K regenerates the technical report's k sweep.
func BenchmarkFig9K(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, nil)
	for _, k := range []int{1, 5, 9} {
		b.Run(fmt.Sprintf("k=%d/lora", k), func(b *testing.B) {
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := *f.queries[i%len(f.queries)]
				q.Params.K = k
				if _, err := f.eng.Search(ctx, &q, core.LORA, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9M regenerates the technical report's tuple-size sweep.
func BenchmarkFig9M(b *testing.B) {
	for _, m := range []int{2, 3, 4} {
		m := m
		mut := func(wc *workload.Config) { wc.M = m }
		// fixture key must distinguish m; wrap in a stable named func per m
		f := getFixtureM(b, m, mut)
		b.Run(fmt.Sprintf("m=%d/lora", m), func(b *testing.B) {
			runAlgo(b, f, core.LORA, core.Options{})
		})
	}
}

var fixtureMCache = map[int]*fixture{}

func getFixtureM(b *testing.B, m int, mut func(*workload.Config)) *fixture {
	fixtureMu.Lock()
	if f, ok := fixtureMCache[m]; ok {
		fixtureMu.Unlock()
		return f
	}
	fixtureMu.Unlock()
	ds, err := synth.Generate(synth.GaodeLike(5000, 1))
	if err != nil {
		b.Fatal(err)
	}
	wc := workload.Config{
		Count: 10, M: 3, Params: query.DefaultParams(), Variant: query.CSEQ,
		Mode: workload.DistanceBounded, Scale: 10, Seed: 2,
	}
	mut(&wc)
	queries, err := workload.Generate(ds, wc)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{eng: core.NewEngine(ds), queries: queries}
	fixtureMu.Lock()
	fixtureMCache[m] = f
	fixtureMu.Unlock()
	return f
}

// BenchmarkFig10SEQ regenerates Fig. 10: the SEQ (beta=inf) frontier.
func BenchmarkFig10SEQ(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, wcSEQ)
	for _, d := range []int{1, 4, 10} {
		b.Run(fmt.Sprintf("D=%d/lora", d), func(b *testing.B) {
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := *f.queries[i%len(f.queries)]
				q.Params.GridD = d
				if _, err := f.eng.Search(ctx, &q, core.LORA, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("dfsprune", func(b *testing.B) {
		runAlgo(b, f, core.DFSPrune, core.Options{})
	})
}

// BenchmarkFig11FP regenerates Fig. 11: CSEQ-FP with size-5 examples and
// two pinned points.
func BenchmarkFig11FP(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, wcFP)
	for _, algo := range []core.Algorithm{core.DFSPrune, core.HSP, core.LORA} {
		b.Run(algo.String(), func(b *testing.B) {
			runAlgo(b, f, algo, core.Options{})
		})
	}
}

// BenchmarkAblationPartition isolates HSP's partitioning gain (A1).
func BenchmarkAblationPartition(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, nil)
	b.Run("partitioned", func(b *testing.B) {
		runAlgo(b, f, core.HSP, core.Options{})
	})
	b.Run("whole-space", func(b *testing.B) {
		runAlgo(b, f, core.HSP, core.Options{HSP: hsp.Options{DisablePartition: true}})
	})
}

// BenchmarkAblationBounds isolates HSP's refined bounds (A4).
func BenchmarkAblationBounds(b *testing.B) {
	f := getFixture(b, eval.Gaode, 5000, nil)
	b.Run("refined", func(b *testing.B) {
		runAlgo(b, f, core.HSP, core.Options{})
	})
	b.Run("loose", func(b *testing.B) {
		runAlgo(b, f, core.HSP, core.Options{HSP: hsp.Options{LooseBounds: true}})
	})
}

// BenchmarkAblationSampling compares sampling strategies (A2).
func BenchmarkAblationSampling(b *testing.B) {
	f := getFixture(b, eval.Gaode, 20000, nil)
	b.Run("query-dependent", func(b *testing.B) {
		runAlgo(b, f, core.LORA, core.Options{})
	})
	b.Run("random", func(b *testing.B) {
		runAlgo(b, f, core.LORA, core.Options{LORA: lora.Options{RandomSample: true, RandomSeed: 1}})
	})
}

// BenchmarkAblationCellNorm measures the optional cell-level norm filter (A3).
func BenchmarkAblationCellNorm(b *testing.B) {
	f := getFixture(b, eval.Gaode, 20000, nil)
	b.Run("off", func(b *testing.B) {
		runAlgo(b, f, core.LORA, core.Options{})
	})
	b.Run("on", func(b *testing.B) {
		runAlgo(b, f, core.LORA, core.Options{LORA: lora.Options{PruneCellNorm: true}})
	})
}

// BenchmarkParallelism measures the parallel subspace search speedup.
func BenchmarkParallelism(b *testing.B) {
	f := getFixture(b, eval.Gaode, 100000, nil)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("hsp/workers=%d", workers), func(b *testing.B) {
			runAlgo(b, f, core.HSP, core.Options{HSP: hsp.Options{Parallelism: workers}})
		})
	}
	b.Run("lora/workers=4", func(b *testing.B) {
		runAlgo(b, f, core.LORA, core.Options{LORA: lora.Options{Parallelism: 4}})
	})
}

// BenchmarkEngineBuild measures index construction (excluded from query
// timings, as in the paper).
func BenchmarkEngineBuild(b *testing.B) {
	ds, err := synth.Generate(synth.GaodeLike(50000, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.NewEngine(ds)
	}
}
