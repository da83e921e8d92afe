// Package testkit is the repo's reusable property-testing subsystem: the
// correctness substrate every optimisation PR is validated against.
//
// It provides three tiers of checks over the whole query stack:
//
//   - differential: brute force is the oracle; HSP (sequential and
//     parallel) and DFS-Prune must agree tuple-for-tuple, and LORA's
//     results must be feasible, β-constraint-valid and score-dominated by
//     the exact top-k (RunDiff / CheckCase);
//   - metamorphic: invariants derived from the paper's similarity model —
//     SIMs invariance under translation/rotation/uniform scaling,
//     dimension-permutation consistency, monotonicity in k, the α = 0/1
//     interpolation endpoints, and fixed-point queries agreeing with
//     post-filtered CSEQ (meta.go);
//   - fuzzing: FuzzSearch drives the differential checker from
//     fuzzer-chosen seeds and parameters (fuzz_test.go), alongside
//     FuzzDistVector (internal/geo) and FuzzServerDecode
//     (internal/server).
//
// Every scenario is a seeded Case: the same (Seed, Shape, M, Params,
// Variant) always regenerates the same dataset and query, so a failure
// report is a reproduction recipe. Shrink reduces a failing case to a
// minimal counterexample (fewer objects, fewer dimensions, smaller k).
package testkit

import (
	"fmt"
	"math/rand"
	"strings"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// Shape names one dataset family the differential suite sweeps.
type Shape = testutil.Shape

// DefaultShapes returns the three dataset shapes the differential suite
// runs against (testutil.RecipeShapes).
func DefaultShapes() []Shape { return testutil.RecipeShapes() }

// Case is one reproducible differential scenario: the generation recipe
// plus, after Generate, the materialized dataset and query.
type Case struct {
	Seed    int64
	Shape   Shape
	M       int
	Variant query.Variant
	Params  query.Params
	// PinCount is how many dimensions Generate pins to dataset objects
	// when Variant is CSEQFP (0 means 1).
	PinCount int

	DS *dataset.Dataset
	Q  *query.Query
}

// Generate materializes the dataset and query from the recipe. A CSEQ-FP
// case whose pinned categories turn out empty degrades to plain CSEQ (the
// recipe stays reproducible either way). The returned query is validated.
func (c *Case) Generate() error {
	rng := rand.New(rand.NewSource(c.Seed))
	c.DS = testutil.RandDatasetSpec(rng, c.Shape.Spec)
	scale := c.Shape.Spec.Extent * 0.3
	c.Q = testutil.RandQuery(rng, c.DS, c.M, scale, c.Params)
	c.Q.Variant = c.Variant
	if c.Variant == query.CSEQFP {
		pins := c.PinCount
		if pins < 1 {
			pins = 1
		}
		if pins > c.M {
			pins = c.M
		}
		dims := rng.Perm(c.M)[:pins]
		if !testutil.PinDims(rng, c.DS, c.Q, dims...) {
			c.Variant = query.CSEQ
			c.Q.Variant = query.CSEQ
		}
	}
	if err := c.Q.Validate(c.DS); err != nil {
		return fmt.Errorf("testkit: case %s generated an invalid query: %w", c, err)
	}
	return nil
}

// String renders the reproduction recipe (not the materialized data).
func (c *Case) String() string {
	return fmt.Sprintf("{Seed: %d, Shape: %s, M: %d, Variant: %s, Params: %+v, PinCount: %d}",
		c.Seed, c.Shape.Name, c.M, c.Variant, c.Params, c.PinCount)
}

// FormatCase renders a concrete (dataset, query) pair as text — the
// payload attached to a shrunk counterexample so it can be reconstructed
// in a regression test without re-running the generator.
func FormatCase(ds *dataset.Dataset, q *query.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataset: %d objects, %d categories, attrDim %d\n",
		ds.Len(), ds.NumCategories(), ds.AttrDim())
	for i := 0; i < ds.Len(); i++ {
		loc := ds.Loc(i)
		fmt.Fprintf(&b, "  obj %d: cat=%s loc=(%.17g,%.17g) attr=%v\n",
			i, ds.CategoryName(ds.Category(i)), loc.X, loc.Y, ds.Attr(i))
	}
	fmt.Fprintf(&b, "query: variant=%s params=%+v\n", q.Variant, q.Params)
	for d := 0; d < q.Example.M(); d++ {
		fmt.Fprintf(&b, "  dim %d: cat=%s loc=(%.17g,%.17g) attr=%v\n",
			d, ds.CategoryName(q.Example.Categories[d]),
			q.Example.Locations[d].X, q.Example.Locations[d].Y, q.Example.Attrs[d])
	}
	if len(q.Example.Fixed) > 0 {
		fmt.Fprintf(&b, "  fixed: %v\n", q.Example.Fixed)
	}
	if len(q.Example.SkipPairs) > 0 {
		fmt.Fprintf(&b, "  skip-pairs: %v\n", q.Example.SkipPairs)
	}
	return b.String()
}

// mix64 derives a per-case seed from a suite seed and an index with a
// SplitMix64 round, so neighbouring indices land in unrelated rng streams.
func mix64(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// CloneQuery returns a deep copy of q: the metamorphic transforms mutate
// examples and parameters without touching the caller's query.
func CloneQuery(q *query.Query) *query.Query {
	out := &query.Query{Variant: q.Variant, Params: q.Params}
	ex := &q.Example
	out.Example = query.Example{
		Categories: append([]dataset.CategoryID(nil), ex.Categories...),
		Locations:  append([]geo.Point(nil), ex.Locations...),
		Metric:     ex.Metric,
	}
	out.Example.Attrs = make([][]float64, len(ex.Attrs))
	for i, a := range ex.Attrs {
		out.Example.Attrs[i] = append([]float64(nil), a...)
	}
	if ex.Fixed != nil {
		out.Example.Fixed = append([]query.FixedPoint(nil), ex.Fixed...)
	}
	if ex.SkipPairs != nil {
		out.Example.SkipPairs = append([][2]int(nil), ex.SkipPairs...)
	}
	return out
}
