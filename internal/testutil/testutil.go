// Package testutil builds small deterministic datasets and queries for the
// algorithm test suites. It lives outside the individual test files so the
// cross-algorithm equivalence tests, the property tests (internal/testkit)
// and the benchmarks all draw from the same seeded-generation path.
package testutil

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// DatasetSpec parameterizes RandDatasetSpec. The zero values of the
// optional fields (CategorySkew, ZeroAttrFrac) reproduce RandDataset's
// stream exactly, so existing seeded fixtures stay stable.
type DatasetSpec struct {
	// N is the object count.
	N int
	// Categories is the number of interned categories ("cat-0"...).
	Categories int
	// AttrDim is the attribute vector length.
	AttrDim int
	// Extent is the side length of the square data space.
	Extent float64
	// CategorySkew > 0 draws categories Zipf-like: P(c) proportional to
	// (c+1)^-skew, so cat-0 dominates. 0 draws uniformly.
	CategorySkew float64
	// ZeroAttrFrac is the probability that an object gets an all-zero
	// attribute vector — the zero-norm corner the cosine conventions
	// (vectormath.Cos) and the tie-break contract must survive.
	ZeroAttrFrac float64
}

// Shape names one dataset family a test suite sweeps.
type Shape struct {
	Name string
	Spec DatasetSpec
}

// RecipeShapes returns the three dataset shapes the differential suite
// (internal/testkit) runs against: uniform categories, Zipf-skewed
// categories (one dominant category stresses dense candidate lists), and
// a zero-attribute mix (the zero-norm cosine conventions and heavy score
// ties).
func RecipeShapes() []Shape {
	return []Shape{
		{Name: "uniform", Spec: DatasetSpec{N: 42, Categories: 3, AttrDim: 4, Extent: 100}},
		{Name: "skewed", Spec: DatasetSpec{N: 60, Categories: 5, AttrDim: 3, Extent: 100, CategorySkew: 1.2}},
		{Name: "zero-attr", Spec: DatasetSpec{N: 48, Categories: 2, AttrDim: 4, Extent: 60, ZeroAttrFrac: 0.3}},
	}
}

// ShapedQuery is a validated query over its dataset, tagged with the
// name of the shape that generated both.
type ShapedQuery struct {
	Shape string
	Name  string
	DS    *dataset.Dataset
	Q     *query.Query
}

// EnumerationQueries returns the seeded queries the HSP and LORA
// enumeration loops are held to their reference loops on: a dozen per
// recipe shape, over CSEQ, SEQ and CSEQ-FP with tuple sizes 2-4, plus
// edge shapes — "one-category" (every dimension shares one category, so
// later candidate lists hold the earlier tuple objects), the same with a
// pinned dimension, "ties" (a near-point extent and half the attribute
// vectors zero), "no-attrs" (no attribute dimensions: every similarity
// is 1) and "zero-attrs" (all-zero attribute vectors: every similarity
// is 0).
func EnumerationQueries() []ShapedQuery {
	oneCat := DatasetSpec{N: 40, Categories: 1, AttrDim: 3, Extent: 60}
	shapes := append(RecipeShapes(),
		Shape{Name: "one-category", Spec: oneCat},
		Shape{Name: "one-category-pinned", Spec: oneCat},
		Shape{Name: "ties", Spec: DatasetSpec{N: 36, Categories: 2, AttrDim: 2, Extent: 0.001, ZeroAttrFrac: 0.5}},
		Shape{Name: "no-attrs", Spec: DatasetSpec{N: 40, Categories: 2, Extent: 60}},
		Shape{Name: "zero-attrs", Spec: DatasetSpec{N: 40, Categories: 2, AttrDim: 3, Extent: 60, ZeroAttrFrac: 1}},
	)
	ks := []int{1, 3, 5, 8}
	alphas := []float64{0.3, 0.5, 0.9, 1}
	betas := []float64{1.2, 1.5, 3}
	var out []ShapedQuery
	for si, sh := range shapes {
		for i := 0; i < 12; i++ {
			rng := rand.New(rand.NewSource(int64(100*si + i)))
			ds := RandDatasetSpec(rng, sh.Spec)
			m := 2 + i%3
			params := query.Params{K: ks[i%4], Alpha: alphas[(i/2)%4], Beta: betas[i%3], GridD: 3 + i%3, Xi: 5}
			q := RandQuery(rng, ds, m, sh.Spec.Extent*0.3, params)
			switch {
			case sh.Name == "one-category-pinned":
				PinDims(rng, ds, q, i%m)
			case i%4 == 1:
				q.Variant = query.SEQ
			case i%4 == 2:
				PinDims(rng, ds, q, rng.Intn(m))
			}
			if err := q.Validate(ds); err != nil {
				//lint:ignore panicfree test-support package: known-good configs, and tests want the crash
				panic(err)
			}
			out = append(out, ShapedQuery{Shape: sh.Name, Name: fmt.Sprintf("%s/%d", sh.Name, i), DS: ds, Q: q})
		}
	}
	return out
}

// TieGridQueries returns a dozen queries over tie-heavy datasets: two
// categories on a coarse integer grid, each object with one of three
// attribute vectors, so similarities tie in long runs and points sit on
// split lines and band edges. Each query's first and last dimensions
// share a category, and every fourth pins a dimension.
func TieGridQueries() []ShapedQuery {
	var out []ShapedQuery
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(900 + i)))
		ds := tieDataset(rng, 400)
		q := RandQuery(rng, ds, 3, 8, query.Params{K: 1 + i%6, Alpha: 0.5, Beta: 1.5 + float64(i%3)})
		q.Example.Categories[2] = q.Example.Categories[0]
		if i%4 == 3 {
			PinDims(rng, ds, q, 1)
		}
		if err := q.Validate(ds); err != nil {
			//lint:ignore panicfree test-support package: known-good configs, and tests want the crash
			panic(err)
		}
		out = append(out, ShapedQuery{Shape: "tie-grid", Name: "tie-grid/" + string(rune('a'+i)), DS: ds, Q: q})
	}
	return out
}

// tieDataset puts n objects of two categories on a coarse integer grid,
// each with one of three attribute vectors.
func tieDataset(rng *rand.Rand, n int) *dataset.Dataset {
	vecs := [][]float64{{1, 0.2}, {0.6, 0.8}, {0.3, 0.9}}
	b := &dataset.Builder{}
	cats := []dataset.CategoryID{b.Category("a"), b.Category("b")}
	for i := 0; i < n; i++ {
		b.Add(dataset.Object{ID: int64(i), Category: cats[rng.Intn(2)], Attr: vecs[rng.Intn(3)],
			Loc: geo.Point{X: float64(rng.Intn(25)), Y: float64(rng.Intn(25))}})
	}
	ds, err := b.Build()
	if err != nil {
		//lint:ignore panicfree test-support package: known-good configs, and tests want the crash
		panic(err)
	}
	return ds
}

// EnumerationWork keeps a search's enumeration counters (HSP's DFS,
// LORA's cell and point enumeration): the ones a change to an
// enumeration loop is held to.
func EnumerationWork(s stats.Snapshot) stats.Snapshot {
	return stats.Snapshot{PrunedPrefixes: s.PrunedPrefixes, Tuples: s.Tuples, Offered: s.Offered,
		CellTuples: s.CellTuples, PrunedCellPrefixes: s.PrunedCellPrefixes, RankPops: s.RankPops}
}

// EagerMemoFill is how many attribute cosines simil's eager memo fill
// computes for q: each dimension's category population, one for a
// pinned dimension.
func EagerMemoFill(ds *dataset.Dataset, q *query.Query) int64 {
	var n int64
	for d, cat := range q.Example.Categories {
		if q.Example.FixedDim(d) >= 0 {
			n++
		} else {
			n += int64(len(ds.CategoryObjects(cat)))
		}
	}
	return n
}

// RandDataset builds a dataset of n objects spread over extent x extent,
// with the given number of categories and attribute dimensions. Points are
// lightly clustered (half the objects snap near one of sqrt(n) anchors) so
// grids and partitions see realistic density variation.
func RandDataset(rng *rand.Rand, n, categories, attrDim int, extent float64) *dataset.Dataset {
	return RandDatasetSpec(rng, DatasetSpec{N: n, Categories: categories, AttrDim: attrDim, Extent: extent})
}

// RandDatasetSpec is RandDataset with category skew and zero-attribute
// controls. With both extras at zero it consumes the rng stream exactly as
// RandDataset does.
func RandDatasetSpec(rng *rand.Rand, spec DatasetSpec) *dataset.Dataset {
	b := &dataset.Builder{}
	for c := 0; c < spec.Categories; c++ {
		b.Category(fmt.Sprintf("cat-%d", c))
	}
	var catWeights []float64
	if spec.CategorySkew > 0 {
		catWeights = make([]float64, spec.Categories)
		var total float64
		for c := range catWeights {
			total += math.Pow(float64(c+1), -spec.CategorySkew)
			catWeights[c] = total
		}
		for c := range catWeights {
			catWeights[c] /= total
		}
	}
	anchors := make([]geo.Point, isqrt(spec.N)+1)
	for i := range anchors {
		anchors[i] = geo.Point{X: rng.Float64() * spec.Extent, Y: rng.Float64() * spec.Extent}
	}
	for i := 0; i < spec.N; i++ {
		var loc geo.Point
		if rng.Intn(2) == 0 {
			a := anchors[rng.Intn(len(anchors))]
			loc = geo.Point{
				X: clamp(a.X+rng.NormFloat64()*spec.Extent/40, 0, spec.Extent),
				Y: clamp(a.Y+rng.NormFloat64()*spec.Extent/40, 0, spec.Extent),
			}
		} else {
			loc = geo.Point{X: rng.Float64() * spec.Extent, Y: rng.Float64() * spec.Extent}
		}
		attr := make([]float64, spec.AttrDim)
		if spec.ZeroAttrFrac <= 0 || rng.Float64() >= spec.ZeroAttrFrac {
			for d := range attr {
				attr[d] = 0.05 + 0.95*rng.Float64()
			}
		}
		b.Add(dataset.Object{
			ID:       int64(i),
			Loc:      loc,
			Category: drawCategory(rng, spec.Categories, catWeights),
			Attr:     attr,
		})
	}
	ds, err := b.Build()
	if err != nil {
		//lint:ignore panicfree test-support package: known-good configs, and tests want the crash
		panic(err)
	}
	return ds
}

func drawCategory(rng *rand.Rand, categories int, cumWeights []float64) dataset.CategoryID {
	if cumWeights == nil {
		return dataset.CategoryID(rng.Intn(categories))
	}
	u := rng.Float64()
	for c, w := range cumWeights {
		if u < w {
			return dataset.CategoryID(c)
		}
	}
	return dataset.CategoryID(categories - 1)
}

// RandQuery draws a CSEQ query with tuple size m whose example locations
// sit within a window of roughly `scale` extent, so the example norm (and
// with it the partitioning radius) is controlled.
func RandQuery(rng *rand.Rand, ds *dataset.Dataset, m int, scale float64, params query.Params) *query.Query {
	bounds := ds.Bounds()
	cx := bounds.MinX + rng.Float64()*bounds.Width()
	cy := bounds.MinY + rng.Float64()*bounds.Height()
	ex := query.Example{
		Categories: make([]dataset.CategoryID, m),
		Locations:  make([]geo.Point, m),
		Attrs:      make([][]float64, m),
	}
	for d := 0; d < m; d++ {
		ex.Categories[d] = dataset.CategoryID(rng.Intn(ds.NumCategories()))
		ex.Locations[d] = geo.Point{
			X: cx + (rng.Float64()-0.5)*scale,
			Y: cy + (rng.Float64()-0.5)*scale,
		}
		attr := make([]float64, ds.AttrDim())
		for i := range attr {
			attr[i] = 0.05 + 0.95*rng.Float64()
		}
		ex.Attrs[d] = attr
	}
	return &query.Query{Variant: query.CSEQ, Example: ex, Params: params}
}

// PinDims turns q into a CSEQ-FP query by pinning each listed dimension to
// a random dataset object of the matching category. It reports false (and
// leaves q untouched) when some listed dimension's category has no
// objects.
func PinDims(rng *rand.Rand, ds *dataset.Dataset, q *query.Query, dims ...int) bool {
	fixed := make([]query.FixedPoint, 0, len(dims))
	for _, d := range dims {
		cands := ds.CategoryObjects(q.Example.Categories[d])
		if len(cands) == 0 {
			return false
		}
		fixed = append(fixed, query.FixedPoint{Dim: d, Obj: cands[rng.Intn(len(cands))]})
	}
	q.Example.Fixed = fixed
	q.Variant = query.CSEQFP
	return true
}

// InRegion returns, in order, the positions of order whose category is
// cat (any category for dataset.NoCategory) and whose location the closed
// rectangle region contains: the brute scan the index's gathers are held
// to.
func InRegion(ds *dataset.Dataset, order []int32, cat dataset.CategoryID, region geo.Rect) []int32 {
	var out []int32
	for _, pos := range order {
		if (cat == dataset.NoCategory || ds.Category(int(pos)) == cat) && region.Contains(ds.Loc(int(pos))) {
			out = append(out, pos)
		}
	}
	return out
}

// Sims extracts the similarity series of a result list, best-first.
func Sims(entries []topk.Entry) []float64 {
	out := make([]float64, len(entries))
	for i, e := range entries {
		out[i] = e.Sim
	}
	return out
}

// SimsEqual reports whether two similarity series agree elementwise within
// tol.
func SimsEqual(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// ReuseQueries returns one dataset and the queries the searches' reuse
// tests run, in order, through their pools: tuple sizes 2, 5, 3 and 4,
// so a pooled state grows, shrinks and grows again, with LORA grids of
// 4, 2, 3 and 2 cells a side and samples of 10, 2, 10 and 5 points a
// bucket, then a query of size 3 with its middle dimension pinned. Each
// search adds its own option variants.
func ReuseQueries() (*dataset.Dataset, []*query.Query) {
	rng := rand.New(rand.NewSource(170))
	ds := RandDataset(rng, 300, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	var qs []*query.Query
	for i, m := range []int{2, 5, 3, 4} {
		params.GridD, params.Xi = []int{4, 2, 3, 2}[i], []int{10, 2, 10, 5}[i]
		qs = append(qs, RandQuery(rng, ds, m, 20, params))
	}
	params.GridD, params.Xi = 4, 10
	pinned := RandQuery(rng, ds, 3, 20, params)
	PinDims(rng, ds, pinned, 1)
	qs = append(qs, pinned)
	for _, q := range qs {
		if err := q.Validate(ds); err != nil {
			//lint:ignore panicfree test-support package: known-good configs, and tests want the crash
			panic(err)
		}
	}
	return ds, qs
}

// EmptyPools runs two garbage collections, which empty every sync.Pool:
// the next search starts from new prepared states, searchers and
// similarity contexts, as the first query of a process does.
func EmptyPools() {
	runtime.GC()
	runtime.GC()
}
