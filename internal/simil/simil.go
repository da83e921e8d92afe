// Package simil evaluates the SEQ/CSEQ similarity model for one query: the
// spatial cosine over distance vectors, the per-dimension attribute
// cosines, the combined tuple similarity, and the prefix upper bounds the
// pruning algorithms rely on (the paper's Eq. 5, Eq. 6 and Eq. 9).
//
// A Context is built once per query and then shared read-only by the
// enumeration; the scratch buffers needed during DFS live in a separate
// per-goroutine Scratch value. A search that Releases its Context when
// it is done lets the next query's NewContext reuse its tables.
package simil

import (
	"math"
	"slices"
	"sync"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/vectormath"
)

// Context holds the per-query similarity state.
type Context struct {
	DS    *dataset.Dataset
	Ex    *query.Example
	Alpha float64
	// Beta is the effective norm constraint (+Inf for SEQ).
	Beta float64
	// M is the tuple size.
	M int
	// Pairs is the number of active distance pairs: M*(M-1)/2 minus any
	// skipped pairs.
	Pairs int
	// X is the example distance vector in prefix-friendly order, with
	// skipped pairs omitted.
	X []float64
	// XNormed is X normalised to unit length (x'_j). All zeros when the
	// example is degenerate (all locations coincide).
	XNormed []float64
	// Norm is ||V_t*|| over the active pairs.
	Norm float64
	// SuffixSq[u] = sum_{j>=u} XNormed[j]^2; SuffixSq[len(X)] = 0.
	SuffixSq []float64
	// Active flags each PairIndex slot as participating; nil when no
	// pairs are skipped (the common case — keeps the hot path branch-light).
	Active []bool
	// GraphDiam is the active-pair graph diameter (1 with no skips); the
	// partition radius is GraphDiam * beta * ||V_t*||.
	GraphDiam int
	// Metric is the example's distance function (nil = Euclidean).
	Metric query.Metric

	// exNorms[d] is the precomputed Euclidean norm of Ex.Attrs[d], so
	// AttrSim needs only a dot product per candidate (CosPrenormed).
	exNorms []float64

	// Attribute-similarity memo (see PrepareMemoShared), nil or filled.
	// The table is keyed (dimension, category rank): memo[memoOff[d]+r]
	// holds SIMa between example dimension d and the r-th object of d's
	// category, NaN for the objects a pinned dimension never reads. It
	// is read-only once filled, safe to share across subspace workers.
	memo    []float64
	memoOff []int

	// bufs are the tables the Context reuses from an earlier query's.
	bufs contextBufs
}

// contextBufs are the buffers a released Context keeps for the next
// query: the example's vectors, the memo, the bound pass's grid and
// cell tables, and the plan's order arrays. Release clears the
// subspace pointers, so they hold nothing of a query, a dataset or a
// partition while they wait in contexts. Every one is rewritten before
// it is read.
type contextBufs struct {
	x, xn, suffix, exNorms []float64
	active                 []bool
	memo                   []float64
	memoOff                []int
	bound                  boundGrid
	work, kept             []*partition.Subspace
	bounds                 []float64
	ranked                 []ranked
}

// contexts holds released Contexts for NewContext to reuse.
var contexts sync.Pool

// Dist measures the distance between two locations under the query metric.
//
//seq:hotpath
func (c *Context) Dist(a, b geo.Point) float64 {
	if c.Metric == nil {
		return a.Dist(b)
	}
	return c.Metric.Dist(a, b)
}

// NewContext prepares the similarity state for q against ds. The query must
// already be validated. It reuses the tables of a Context an earlier
// query Released, when there is one.
func NewContext(ds *dataset.Dataset, q *query.Query) *Context {
	c, _ := contexts.Get().(*Context)
	if c == nil {
		c = new(Context)
	}
	b := &c.bufs
	ex := &q.Example
	m := ex.M()
	c.DS, c.Ex, c.Alpha, c.Beta, c.M, c.Metric = ds, ex, q.Params.Alpha, q.EffectiveBeta(), m, ex.Metric
	c.GraphDiam = 1
	if len(ex.SkipPairs) > 0 {
		b.active = resize(b.active, geo.PairCount(m))
		c.Active = b.active
		for j := 1; j < m; j++ {
			for i := 0; i < j; i++ {
				c.Active[geo.PairIndex(i, j)] = ex.PairActive(i, j)
			}
		}
		if d, connected := ex.PairGraphDiameter(); connected {
			c.GraphDiam = d
		} else {
			c.GraphDiam = 0 // only meaningful with beta = +Inf (validated upstream)
		}
	}
	// Under the example's own mask and metric, as Example.DistVector.
	b.x = c.DistVectorOf(ex.Locations, b.x)
	x := b.x
	norm := geo.Norm(x)
	b.xn = resize(b.xn, len(x))
	xn := b.xn
	clear(xn)
	if norm > 0 {
		for i, v := range x {
			xn[i] = v / norm
		}
	}
	b.suffix = resize(b.suffix, len(x)+1)
	suffix := b.suffix
	suffix[len(x)] = 0
	for j := len(x) - 1; j >= 0; j-- {
		suffix[j] = suffix[j+1] + xn[j]*xn[j]
	}
	b.exNorms = resize(b.exNorms, m)
	for d, a := range ex.Attrs {
		b.exNorms[d] = vectormath.Norm(a)
	}
	c.Pairs, c.X, c.XNormed, c.Norm, c.SuffixSq, c.exNorms = len(x), x, xn, norm, suffix, b.exNorms
	return c
}

// Release gives the Context's tables back for a later NewContext to
// reuse. Neither the Context nor any slice its Plan or OrderByBound
// returned may be used after it, and a Context must be released at
// most once; one that is never released is simply collected.
func (c *Context) Release() {
	clear(c.bufs.work)
	clear(c.bufs.kept)
	*c = Context{bufs: c.bufs}
	contexts.Put(c)
}

// resize returns s with length n, reallocating it when its capacity is
// short. The elements it keeps are stale: the caller rewrites them.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// PartitionRadius returns the spatial containment radius for the
// hierarchical partitioning: GraphDiam * beta * ||V_t*||. It returns +Inf
// when the constraint cannot bound the extent (SEQ, degenerate examples, a
// disconnected pair graph, or a metric that does not dominate the
// Euclidean distance — then only the whole space is a safe subspace).
func (c *Context) PartitionRadius() float64 {
	if c.Metric != nil && !c.Metric.DominatesEuclidean() {
		return math.Inf(1)
	}
	r := float64(c.GraphDiam) * c.Beta * c.Norm
	if !(r > 0) {
		return math.Inf(1)
	}
	return r
}

// DistVectorOf writes the masked distance vector of locs (under the query
// metric) into dst (resized) and returns it.
//
//seq:hotpath
func (c *Context) DistVectorOf(locs []geo.Point, dst []float64) []float64 {
	if c.Active == nil && c.Metric == nil {
		return geo.DistVector(locs, dst)
	}
	dst = dst[:0]
	for j := 1; j < len(locs); j++ {
		for i := 0; i < j; i++ {
			if c.Active == nil || c.Active[geo.PairIndex(i, j)] {
				//lint:ignore hotpathalloc appends into the caller's reused dst; capacity is amortised after the first tuple
				dst = append(dst, c.Dist(locs[i], locs[j]))
			}
		}
	}
	return dst
}

// DistVectorOfPositions writes the masked distance vector of the tuple of
// dataset positions into dst (resized) and returns it. On the common path
// (no skipped pairs, Euclidean metric) it runs the position-indexed SoA
// kernel over the dataset's contiguous coordinate slices instead of
// gathering geo.Points first.
//
//seq:hotpath
func (c *Context) DistVectorOfPositions(tuple []int32, dst []float64) []float64 {
	if c.Active == nil && c.Metric == nil {
		xs, ys := c.DS.Coords()
		return geo.DistVectorAt(xs, ys, tuple, dst)
	}
	dst = dst[:0]
	for j := 1; j < len(tuple); j++ {
		pj := c.DS.Loc(int(tuple[j]))
		for i := 0; i < j; i++ {
			if c.Active == nil || c.Active[geo.PairIndex(i, j)] {
				//lint:ignore hotpathalloc appends into the caller's reused dst; capacity is amortised after the first tuple
				dst = append(dst, c.Dist(c.DS.Loc(int(tuple[i])), pj))
			}
		}
	}
	return dst
}

// AttrSim returns SIMa between example dimension dim and the dataset object
// at position pos. It equals vectormath.Cos(Ex.Attrs[dim], object attrs)
// bit-for-bit, but costs only a dot product: both norms are precomputed
// (dataset build / NewContext). Once the memo is filled it is a table
// read.
//
//seq:hotpath
func (c *Context) AttrSim(dim int, pos int32) float64 {
	if c.memo != nil && c.DS.Category(int(pos)) == c.Ex.Categories[dim] {
		//lint:ignore floatcmp v == v is the canonical NaN-sentinel test (false iff v is NaN), not a value comparison
		if v := c.memo[c.memoOff[dim]+int(c.DS.CategoryRank(int(pos)))]; v == v {
			return v
		}
	}
	return c.attrSimDirect(dim, pos)
}

// attrSimDirect is the uncached kernel: one dot product over the flat
// attribute row plus the prenormed cosine.
//
//seq:hotpath
func (c *Context) attrSimDirect(dim int, pos int32) float64 {
	dot := vectormath.Dot(c.Ex.Attrs[dim], c.DS.Attr(int(pos)))
	return vectormath.CosPrenormed(dot, c.exNorms[dim], c.DS.AttrNorm(int(pos)))
}

// EnableMemo fills the memo (PrepareMemoShared) and drops its count.
func (c *Context) EnableMemo() { c.PrepareMemoShared() }

// PrepareMemoShared fills the memo for every (dimension, matching
// candidate) pair — a dimension pinned to a fixed object gets only that
// object's entry — so concurrent subspace workers can share the
// Context read-only, and OrderByBound can bound subspaces from it. The
// table has one dense segment per dimension, sized by its category's
// population: the query's candidate universe, at most m x N float64s.
// It returns how many cosines it computed (the query's memo misses;
// every later AttrSim is a hit). Calling it again is a no-op returning
// 0.
func (c *Context) PrepareMemoShared() int64 {
	if c.memo != nil {
		return 0
	}
	c.bufs.memoOff = resize(c.bufs.memoOff, c.M+1)
	c.memoOff = c.bufs.memoOff
	c.memoOff[0] = 0
	for d := 0; d < c.M; d++ {
		c.memoOff[d+1] = c.memoOff[d] + len(c.DS.CategoryObjects(c.Ex.Categories[d]))
	}
	// One spare element keeps a filled memo non-nil even when it is
	// empty (MemoShared).
	c.bufs.memo = resize(c.bufs.memo, c.memoOff[c.M]+1)
	c.memo = c.bufs.memo[:c.memoOff[c.M]]
	var computed int64
	for d := 0; d < c.M; d++ {
		seg := c.memo[c.memoOff[d]:c.memoOff[d+1]]
		if fixed := c.Ex.FixedDim(d); fixed >= 0 {
			for r := range seg {
				seg[r] = math.NaN()
			}
			seg[c.DS.CategoryRank(int(fixed))] = c.attrSimDirect(d, fixed)
			computed++
			continue
		}
		for r, pos := range c.DS.CategoryObjects(c.Ex.Categories[d]) {
			seg[r] = c.attrSimDirect(d, pos)
		}
		computed += int64(len(seg))
	}
	return computed
}

// MemoShared reports whether the memo is filled: its users then count
// every similarity they read as a hit.
func (c *Context) MemoShared() bool { return c.memo != nil }

// SpatialSim returns SIMs between the example and a tuple given the tuple's
// distance vector y (prefix-friendly order).
//
//seq:hotpath
func (c *Context) SpatialSim(y []float64) float64 {
	return vectormath.Cos(c.X, y)
}

// Combine merges a spatial similarity and a mean attribute similarity into
// the tuple similarity SIM = alpha*SIMs + (1-alpha)*SIMa.
//
//seq:hotpath
func (c *Context) Combine(sims, sima float64) float64 {
	return c.Alpha*sims + (1-c.Alpha)*sima
}

// NormOK reports whether a tuple norm satisfies the beta constraint.
//
//seq:hotpath
func (c *Context) NormOK(norm float64) bool {
	return geo.NormOK(norm, c.Norm, c.Beta)
}

// Scratch carries reusable per-search buffers so the DFS allocates nothing
// per candidate.
type Scratch struct {
	// Y is the partial (masked) distance vector of the current prefix.
	Y []float64
	// Locs are the locations of the current prefix.
	Locs []geo.Point
	// AttrSims are the per-dimension attribute sims of the current prefix.
	AttrSims []float64
	// active mirrors Context.Active (nil = every pair participates).
	active []bool
	// metric mirrors Context.Metric (nil = Euclidean).
	metric query.Metric
}

// NewScratch sizes a scratch for tuple size m with every pair active.
// Prefer Context.NewScratch, which carries the query's pair mask.
func NewScratch(m int) *Scratch {
	return &Scratch{
		Y:        make([]float64, 0, geo.PairCount(m)),
		Locs:     make([]geo.Point, 0, m),
		AttrSims: make([]float64, 0, m),
	}
}

// NewScratch returns a scratch wired to this query's pair mask and metric.
func (c *Context) NewScratch() *Scratch {
	s := new(Scratch)
	c.ResetScratch(s)
	return s
}

// ResetScratch readies s for this query: empty, with room for the
// query's tuples, and wired to its pair mask and metric. It reuses s's
// buffers, so one Scratch serves query after query. The zero Scratch is
// a valid s.
func (c *Context) ResetScratch(s *Scratch) {
	s.Y = slices.Grow(s.Y[:0], geo.PairCount(c.M))
	s.Locs = slices.Grow(s.Locs[:0], c.M)
	s.AttrSims = slices.Grow(s.AttrSims[:0], c.M)
	s.active, s.metric = c.Active, c.Metric
}

// Push extends the prefix with an object location, appending its distances
// to all previous prefix points (active pairs only) to Y. It returns the
// number of distance entries added (for the matching Pop).
//
//seq:hotpath
func (s *Scratch) Push(loc geo.Point, attrSim float64) int {
	added := 0
	dim := len(s.Locs)
	for i, p := range s.Locs {
		if s.active != nil && !s.active[geo.PairIndex(i, dim)] {
			continue
		}
		d := p.Dist(loc)
		if s.metric != nil {
			d = s.metric.Dist(p, loc)
		}
		//lint:ignore hotpathalloc appends into the PairCount(m)-capacity buffer NewScratch or ResetScratch sized; never grows
		s.Y = append(s.Y, d)
		added++
	}
	//lint:ignore hotpathalloc appends into the m-capacity buffer NewScratch or ResetScratch sized; never grows
	s.Locs = append(s.Locs, loc)
	//lint:ignore hotpathalloc appends into the m-capacity buffer NewScratch or ResetScratch sized; never grows
	s.AttrSims = append(s.AttrSims, attrSim)
	return added
}

// Pop undoes a Push that added n distance entries.
//
//seq:hotpath
func (s *Scratch) Pop(n int) {
	s.Y = s.Y[:len(s.Y)-n]
	s.Locs = s.Locs[:len(s.Locs)-1]
	s.AttrSims = s.AttrSims[:len(s.AttrSims)-1]
}

// Reset clears the scratch.
func (s *Scratch) Reset() {
	s.Y = s.Y[:0]
	s.Locs = s.Locs[:0]
	s.AttrSims = s.AttrSims[:0]
}

// PrefixNorm returns the norm of the partial distance vector.
//
//seq:hotpath
func (s *Scratch) PrefixNorm() float64 {
	return geo.Norm(s.Y)
}

// AttrSum returns the sum of prefix attribute sims.
//
//seq:hotpath
func (s *Scratch) AttrSum() float64 {
	var t float64
	for _, v := range s.AttrSims {
		t += v
	}
	return t
}

// SpatialBoundEq5 is DFS-Prune's completion bound (paper Eq. 5): given the
// known prefix distances y (the first u = len(y) entries of the candidate's
// distance vector), the cosine against the example cannot exceed
//
//	sqrt(A^2/C + sum_{j>=u} x'_j^2),  A = sum x'_j y_j, C = sum y_j^2.
//
// The result is clamped to [0, 1].
//
// A degenerate example (||V_t*|| = 0, XNormed all zeros) makes the bound
// vacuous: the formula would return 0, yet a tuple whose points all
// coincide has SIMs = Cos(0, 0) = 1 by convention, so 0 is not an upper
// bound. Return 1 in that case, matching SpatialBoundEq9's convention
// (correct, merely without pruning power).
//
//seq:hotpath
func (c *Context) SpatialBoundEq5(y []float64) float64 {
	if c.Norm == 0 {
		return 1
	}
	u := len(y)
	var a, cc float64
	for j, v := range y {
		a += c.XNormed[j] * v
		cc += v * v
	}
	var bound float64
	if cc == 0 {
		bound = math.Sqrt(c.SuffixSq[u])
	} else {
		bound = math.Sqrt(a*a/cc + c.SuffixSq[u])
	}
	return clamp01(bound)
}

// SpatialBoundEq9 is HSP's norm-constrained refinement (paper Eq. 9):
//
//	SIMs <= beta*A/||V_t*||_rel + sqrt(sum_{j>=u} x'_j^2) * sqrt(1 - C/(beta^2*||V_t*||^2))
//
// where A and C are as in Eq. 5. It requires a finite beta and a positive
// example norm; otherwise it returns 1 (vacuous). If the prefix norm
// already exceeds beta*||V_t*|| no completion can satisfy the constraint
// and the function returns -Inf so callers prune unconditionally.
//
//seq:hotpath
func (c *Context) SpatialBoundEq9(y []float64) float64 {
	if math.IsInf(c.Beta, 1) || c.Norm == 0 {
		return 1
	}
	u := len(y)
	var a, cc float64
	for j, v := range y {
		a += c.XNormed[j] * v
		cc += v * v
	}
	limit := c.Beta * c.Norm
	if cc > limit*limit {
		return math.Inf(-1)
	}
	rem := 1 - cc/(limit*limit)
	if rem < 0 {
		rem = 0
	}
	bound := c.Beta*a/c.Norm + math.Sqrt(c.SuffixSq[u])*math.Sqrt(rem)
	return clamp01(bound)
}

// SpatialBound returns the tighter of Eq. 5 and Eq. 9 for the prefix y, as
// HSP does ("we select the upper bound as the tighter one"). -Inf signals
// that the prefix cannot be completed into a beta-feasible tuple.
//
//seq:hotpath
func (c *Context) SpatialBound(y []float64) float64 {
	b9 := c.SpatialBoundEq9(y)
	if math.IsInf(b9, -1) {
		return b9
	}
	b5 := c.SpatialBoundEq5(y)
	if b9 < b5 {
		return b9
	}
	return b5
}

// AttrBoundLoose is DFS-Prune's attribute bound: the prefix contributes its
// actual sims, every unseen dimension is bounded by 1. attrSum is the sum
// over the first i dimensions; the result is the bound on the mean.
//
//seq:hotpath
func (c *Context) AttrBoundLoose(attrSum float64, i int) float64 {
	return (attrSum + float64(c.M-i)) / float64(c.M)
}

// AttrBoundRefined is HSP's Eq. 6: unseen dimensions are bounded by the
// per-subspace maxima rbar[j] instead of 1. rbarSuffix[j] must hold
// sum_{d>=j} rbar[d] (and rbarSuffix[M] = 0).
//
//seq:hotpath
func (c *Context) AttrBoundRefined(attrSum float64, i int, rbarSuffix []float64) float64 {
	return (attrSum + rbarSuffix[i]) / float64(c.M)
}

// TupleSim computes the full similarity of a completed tuple given its
// distance vector y and per-dimension attribute sims. It does not check the
// norm constraint; callers gate on NormOK first.
//
//seq:hotpath
func (c *Context) TupleSim(y, attrSims []float64) float64 {
	var asum float64
	for _, v := range attrSims {
		asum += v
	}
	return c.Combine(c.SpatialSim(y), asum/float64(len(attrSims)))
}

// SimOfPositions scores an arbitrary tuple of dataset positions against the
// example — the reference implementation used by brute force and by tests.
// ok is false when the tuple violates the beta-norm constraint or repeats
// an object.
func (c *Context) SimOfPositions(tuple []int32) (sim float64, ok bool) {
	for i := 0; i < len(tuple); i++ {
		for j := i + 1; j < len(tuple); j++ {
			if tuple[i] == tuple[j] {
				return 0, false
			}
		}
	}
	attr := make([]float64, len(tuple))
	for d, pos := range tuple {
		attr[d] = c.AttrSim(d, pos)
	}
	y := c.DistVectorOfPositions(tuple, nil)
	if !c.NormOK(geo.Norm(y)) {
		return 0, false
	}
	return c.TupleSim(y, attr), true
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
