package testkit

import (
	"context"
	"fmt"
	"math"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/dfsprune"
	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// Tol is the similarity tolerance of the differential comparisons. The
// exact algorithms share every kernel with brute force (same accumulation
// orders, documented bit-for-bit), so scores are expected to match far
// tighter than this; the tolerance only guards against a future kernel
// reordering turning into a wall of spurious reports.
const Tol = 1e-9

// Mismatch is one differential disagreement.
type Mismatch struct {
	// Case is the generating recipe (nil for ad-hoc CheckCase calls on
	// hand-built data).
	Case *Case
	// Algo names the implementation that disagreed with the oracle
	// ("hsp", "hsp-parallel", "dfs-prune", "lora").
	Algo string
	// Kind classifies the disagreement: "count", "score", "tuple" for the
	// exact algorithms; "extra", "infeasible", "category", "pin", "score",
	// "dominated", "order" for LORA.
	Kind string
	// Detail is human-readable context, including the shrunk
	// counterexample when shrinking was enabled.
	Detail string
}

// String implements fmt.Stringer.
func (m Mismatch) String() string {
	repro := ""
	if m.Case != nil {
		repro = " case=" + m.Case.String()
	}
	return fmt.Sprintf("[%s/%s]%s %s", m.Algo, m.Kind, repro, m.Detail)
}

// DiffConfig parameterizes RunDiff. Zero slices fall back to the listed
// defaults.
type DiffConfig struct {
	// Seed derives every case seed (mix64(Seed, i)).
	Seed int64
	// Queries is how many seeded queries to run (default 510).
	Queries int
	// Shapes are the dataset families to cycle through (default
	// DefaultShapes).
	Shapes []Shape
	// Ms cycles the tuple sizes (default [2,2,3] — two cheap sizes per
	// expensive one keeps the oracle affordable).
	Ms []int
	// Ks cycles the result counts (default [1,3,5,8]).
	Ks []int
	// Alphas cycles the spatial/attribute weights (default
	// [0.3,0.5,0.9,1]).
	Alphas []float64
	// Betas cycles the norm constraints (default [1.2,1.5,3]).
	Betas []float64
	// FixedPointEvery makes every n-th query CSEQ-FP (0 disables).
	FixedPointEvery int
	// SEQEvery makes every n-th query SEQ (0 disables; takes precedence
	// over FixedPointEvery on collisions).
	SEQEvery int
	// ParallelEvery additionally runs HSP with Parallelism=4 on every
	// n-th query (0 disables) — the concurrent top-k must stay
	// tuple-deterministic.
	ParallelEvery int
	// StealChunkSizes additionally forces the work-stealing scheduler's
	// chunk size to each listed value on the ParallelEvery queries
	// (sched.Tuning.ChunkSize semantics: 1 is the adversarial
	// per-candidate split, -1 disables splitting). HSP must stay exact
	// at every granularity; LORA (when CheckLORA) must stay valid.
	StealChunkSizes []int
	// CheckLORA also validates LORA results (feasibility + domination).
	CheckLORA bool
	// Shrink reduces the first failing case to a minimal counterexample
	// and attaches it to the mismatch detail.
	Shrink bool
	// MaxMismatches stops the run after this many disagreements
	// (default 5).
	MaxMismatches int
}

func (cfg *DiffConfig) fillDefaults() {
	if cfg.Queries <= 0 {
		cfg.Queries = 510
	}
	if len(cfg.Shapes) == 0 {
		cfg.Shapes = DefaultShapes()
	}
	if len(cfg.Ms) == 0 {
		cfg.Ms = []int{2, 2, 3}
	}
	if len(cfg.Ks) == 0 {
		cfg.Ks = []int{1, 3, 5, 8}
	}
	if len(cfg.Alphas) == 0 {
		cfg.Alphas = []float64{0.3, 0.5, 0.9, 1}
	}
	if len(cfg.Betas) == 0 {
		cfg.Betas = []float64{1.2, 1.5, 3}
	}
	if cfg.MaxMismatches <= 0 {
		cfg.MaxMismatches = 5
	}
}

// DiffReport summarises a RunDiff sweep.
type DiffReport struct {
	// Queries is how many cases actually ran.
	Queries int
	// ByVariant counts cases per query variant name.
	ByVariant map[string]int
	// Mismatches are the disagreements found (empty on a clean run).
	Mismatches []Mismatch
}

// caseAt derives the i-th seeded recipe of the sweep (before
// materialization — call Generate on the result): the suite's case
// schedule, which RunDiff iterates once it has filled cfg's defaults.
func (cfg DiffConfig) caseAt(i int) *Case {
	c := &Case{
		Seed:    mix64(cfg.Seed, i),
		Shape:   cfg.Shapes[i%len(cfg.Shapes)],
		M:       cfg.Ms[(i/len(cfg.Shapes))%len(cfg.Ms)],
		Variant: query.CSEQ,
		Params: query.Params{
			K:     cfg.Ks[i%len(cfg.Ks)],
			Alpha: cfg.Alphas[(i/2)%len(cfg.Alphas)],
			Beta:  cfg.Betas[(i/3)%len(cfg.Betas)],
			GridD: 3 + i%4,
			Xi:    5 + i%2*5,
		},
		PinCount: 1 + i%2,
	}
	switch {
	case cfg.SEQEvery > 0 && i%cfg.SEQEvery == 0:
		c.Variant = query.SEQ
	case cfg.FixedPointEvery > 0 && i%cfg.FixedPointEvery == 1:
		c.Variant = query.CSEQFP
	}
	return c
}

// RunDiff executes the differential sweep: for each seeded case it runs
// brute force as the oracle, compares HSP and DFS-Prune tuple-for-tuple,
// and (optionally) validates LORA. It stops early on context cancellation
// or after MaxMismatches disagreements.
func RunDiff(ctx context.Context, cfg DiffConfig) (*DiffReport, error) {
	cfg.fillDefaults()
	rep := &DiffReport{ByVariant: make(map[string]int)}
	for i := 0; i < cfg.Queries; i++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		c := cfg.caseAt(i)
		if err := c.Generate(); err != nil {
			return rep, err
		}
		rep.Queries++
		rep.ByVariant[c.Q.Variant.String()]++
		parallel := cfg.ParallelEvery > 0 && i%cfg.ParallelEvery == 0
		found, err := CheckCase(ctx, c, parallel, cfg.CheckLORA)
		if err != nil {
			return rep, fmt.Errorf("testkit: case %s: %w", c, err)
		}
		if parallel && len(cfg.StealChunkSizes) > 0 {
			steal, err := CheckCaseSteal(ctx, c, cfg.StealChunkSizes, cfg.CheckLORA)
			if err != nil {
				return rep, fmt.Errorf("testkit: case %s (steal): %w", c, err)
			}
			found = append(found, steal...)
		}
		if len(found) > 0 && cfg.Shrink {
			shrinkFirst(ctx, c, found)
		}
		rep.Mismatches = append(rep.Mismatches, found...)
		if len(rep.Mismatches) >= cfg.MaxMismatches {
			break
		}
	}
	return rep, nil
}

// CheckCase runs the differential oracle over one generated case. The
// exact algorithms are compared tuple-for-tuple; LORA (when checkLORA) is
// validated for feasibility and score domination.
func CheckCase(ctx context.Context, c *Case, parallel, checkLORA bool) ([]Mismatch, error) {
	ix := testutil.BuildIndex(c.DS)
	want := brute.Search(c.DS, c.Q)
	var out []Mismatch

	got, err := hsp.Search(ctx, c.DS, ix, c.Q, hsp.Options{})
	if err != nil {
		return out, fmt.Errorf("hsp: %w", err)
	}
	out = append(out, CompareExact(c, "hsp", want, got)...)

	if parallel {
		got, err = hsp.Search(ctx, c.DS, ix, c.Q, hsp.Options{Parallelism: 4})
		if err != nil {
			return out, fmt.Errorf("hsp parallel: %w", err)
		}
		out = append(out, CompareExact(c, "hsp-parallel", want, got)...)
	}

	got, err = dfsprune.Search(ctx, c.DS, c.Q)
	if err != nil {
		return out, fmt.Errorf("dfs-prune: %w", err)
	}
	out = append(out, CompareExact(c, "dfs-prune", want, got)...)

	if checkLORA {
		approx, err := lora.Search(ctx, c.DS, ix, c.Q, lora.Options{})
		if err != nil {
			return out, fmt.Errorf("lora: %w", err)
		}
		out = append(out, CheckApprox(c, want, approx)...)
	}
	return out, nil
}

// CheckCaseSteal re-runs one case through the parallel paths with the
// work-stealing scheduler forced to each chunk size: HSP compared
// tuple-for-tuple against the brute oracle (exactness must hold at any
// steal granularity, including chunk=1), LORA re-validated for
// feasibility and domination.
func CheckCaseSteal(ctx context.Context, c *Case, chunkSizes []int, checkLORA bool) ([]Mismatch, error) {
	ix := testutil.BuildIndex(c.DS)
	want := brute.Search(c.DS, c.Q)
	var out []Mismatch
	for _, cs := range chunkSizes {
		tun := sched.Tuning{ChunkSize: cs}
		got, err := hsp.Search(ctx, c.DS, ix, c.Q, hsp.Options{Parallelism: 4, Steal: tun})
		if err != nil {
			return out, fmt.Errorf("hsp steal chunk=%d: %w", cs, err)
		}
		out = append(out, CompareExact(c, fmt.Sprintf("hsp-steal-%d", cs), want, got)...)

		if checkLORA {
			approx, err := lora.Search(ctx, c.DS, ix, c.Q, lora.Options{Parallelism: 4, Steal: tun})
			if err != nil {
				return out, fmt.Errorf("lora steal chunk=%d: %w", cs, err)
			}
			out = append(out, CheckApprox(c, want, approx)...)
		}
	}
	return out, nil
}

// CompareExact asserts that an exact algorithm's results agree with the
// brute-force oracle tuple-for-tuple. With the deterministic tie-break
// (topk.beats) and the tie-aware WouldAccept, agreement is positional, not
// just score-level.
func CompareExact(c *Case, algo string, want, got []topk.Entry) []Mismatch {
	if len(want) != len(got) {
		return []Mismatch{{Case: c, Algo: algo, Kind: "count",
			Detail: fmt.Sprintf("oracle has %d results, %s has %d", len(want), algo, len(got))}}
	}
	var out []Mismatch
	for i := range want {
		if math.Abs(want[i].Sim-got[i].Sim) > Tol {
			out = append(out, Mismatch{Case: c, Algo: algo, Kind: "score",
				Detail: fmt.Sprintf("rank %d: oracle sim %.17g, got %.17g", i, want[i].Sim, got[i].Sim)})
			continue
		}
		if !tuplesEqual(want[i].Tuple, got[i].Tuple) {
			out = append(out, Mismatch{Case: c, Algo: algo, Kind: "tuple",
				Detail: fmt.Sprintf("rank %d: oracle tuple %v (sim %.17g), got %v (sim %.17g)",
					i, want[i].Tuple, want[i].Sim, got[i].Tuple, got[i].Sim)})
		}
	}
	return out
}

// CheckApprox validates LORA's results against the exact oracle: every
// returned tuple must be category-correct, pin-honouring, duplicate-free
// and β-feasible with a correctly computed score; the score series must be
// non-increasing and dominated rank-by-rank by the exact top-k; and LORA
// cannot return more results than feasible tuples exist.
func CheckApprox(c *Case, want, got []topk.Entry) []Mismatch {
	var out []Mismatch
	if len(got) > len(want) {
		out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "extra",
			Detail: fmt.Sprintf("lora returned %d results but only %d feasible tuples rank in the exact top-k", len(got), len(want))})
		return out
	}
	sctx := simil.NewContext(c.DS, c.Q)
	for i, e := range got {
		for d, pos := range e.Tuple {
			if c.DS.Category(int(pos)) != c.Q.Example.Categories[d] {
				out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "category",
					Detail: fmt.Sprintf("rank %d: tuple %v has wrong category at dim %d", i, e.Tuple, d)})
			}
		}
		for _, f := range c.Q.Example.Fixed {
			if e.Tuple[f.Dim] != f.Obj {
				out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "pin",
					Detail: fmt.Sprintf("rank %d: tuple %v ignores pin %+v", i, e.Tuple, f)})
			}
		}
		sim, ok := sctx.SimOfPositions(e.Tuple)
		if !ok {
			out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "infeasible",
				Detail: fmt.Sprintf("rank %d: tuple %v violates the beta-norm constraint or repeats an object", i, e.Tuple)})
			continue
		}
		if math.Abs(sim-e.Sim) > Tol {
			out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "score",
				Detail: fmt.Sprintf("rank %d: tuple %v reported sim %.17g, recomputed %.17g", i, e.Tuple, e.Sim, sim)})
		}
		if e.Sim > want[i].Sim+Tol {
			out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "dominated",
				Detail: fmt.Sprintf("rank %d: approximate sim %.17g exceeds the exact optimum %.17g", i, e.Sim, want[i].Sim)})
		}
		if i > 0 && e.Sim > got[i-1].Sim+Tol {
			out = append(out, Mismatch{Case: c, Algo: "lora", Kind: "order",
				Detail: fmt.Sprintf("rank %d: sim %.17g exceeds rank %d's %.17g", i, e.Sim, i-1, got[i-1].Sim)})
		}
	}
	return out
}

// shrinkFirst reduces the first mismatch's case to a minimal
// counterexample and attaches it (plus the recipe) to the mismatch detail.
func shrinkFirst(ctx context.Context, c *Case, found []Mismatch) {
	first := &found[0]
	fails := func(ds *dataset.Dataset, q *query.Query) bool {
		cand := &Case{Seed: c.Seed, Shape: c.Shape, M: q.Example.M(),
			Variant: q.Variant, Params: q.Params, DS: ds, Q: q}
		ms, err := CheckCase(ctx, cand, false, first.Algo == "lora")
		if err != nil {
			return false
		}
		for _, m := range ms {
			if m.Algo == first.Algo && m.Kind == first.Kind {
				return true
			}
		}
		return false
	}
	sds, sq := Shrink(c.DS, c.Q, fails, 4)
	first.Detail += "\nshrunk counterexample:\n" + FormatCase(sds, sq)
}

func tuplesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
