// Package partition implements the hierarchical space partitioning scheme
// of HSP and LORA (paper Section III-A).
//
// The data space is split recursively from the middle of the horizontal and
// vertical dimensions, alternating per level, until a subspace is empty or
// its diagonal is smaller than the query radius beta*||V_t*||. Non-empty
// leaves are the *core subspaces*: disjoint, jointly covering every point.
// Each core subspace is surrounded by a band-shaped *auxiliary subspace* of
// width beta*||V_t*||; the union (the *ac-subspace*) is guaranteed to
// contain every CSEQ-valid tuple whose first point lies in the core
// (no valid tuple has two points farther apart than beta*||V_t*||).
//
// Every split is a fixed midpoint of one bounding box, so every core at
// every radius is a node of one midpoint tree. The Index orders the
// dataset's positions, and each category's positions apart, along that
// tree once, so the objects of any node, all of them or one category's,
// form one contiguous run. A core's points are a view of its run, and
// Gather returns a category's objects in any rectangle as the runs of the
// nodes the rectangle covers plus the filtered runs of the nodes it cuts,
// and Nearest finds the objects nearest to a point by a depth-first
// descent of the same tree. It is the repository's one spatial index:
// NewPointIndex builds it over bare points, such as a road network's
// nodes, which the travel-distance metric snaps to.
//
// Lemma 1 discipline: algorithms enumerate a tuple only inside the
// ac-subspace whose core contains the tuple's first point, so every
// candidate is enumerated exactly once across all subspaces.
package partition

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
)

// Subspace is one core subspace plus its surrounding auxiliary band.
type Subspace struct {
	// Core is the core subspace rectangle. Cores of different Subspaces
	// are disjoint and their union covers the data bounds.
	Core geo.Rect
	// AC is the ac-subspace: Core inflated by the band width, clipped to
	// the data bounds (points only exist inside the bounds, so clipping
	// loses no candidates).
	AC geo.Rect
	// CorePoints are dataset positions of points inside Core: a view of
	// the core's run in the index, which callers must not modify.
	CorePoints []int32
	// ACPoints is never filled: a region's objects come from
	// Index.Gather. The field stays only because the benchmark's traced
	// ledger still reads it; that ledger's rewrite (ROADMAP item 2)
	// deletes it.
	ACPoints []int32
}

// Partition is the result of partitioning one dataset for one query radius.
type Partition struct {
	Subspaces []Subspace
	// Radius is the band width / diagonal threshold beta*||V_t*|| used.
	Radius float64
	// Bounds is the partitioned data space.
	Bounds geo.Rect
}

// Index holds the dataset's positions (or NewPointIndex's points) in path
// order: the order of a depth-first walk of the midpoint tree, low half
// before high half. It stores no keys: a node's run splits into its
// halves by a binary search on the split test itself (see cut). Build it
// once per dataset and reuse it across queries (the partition depends on
// the query radius, the index does not).
type Index struct {
	xs, ys []float64 // the coordinates of position i are xs[i], ys[i]
	bounds geo.Rect
	// all holds every position in path order; byCat holds each
	// category's positions in path order, category c's run being
	// byCat[catOff[c]:catOff[c+1]].
	all, byCat []int32
	catOff     []int32
	cache      partitionCache
}

// NewIndex orders ds's positions along the midpoint tree over its
// bounds. It reads the dataset's coordinate slices without copying them.
func NewIndex(ds *dataset.Dataset) *Index {
	xs, ys := ds.Coords()
	ix := build(xs, ys, ds.Bounds())
	// A counting sort by category keeps path order within each category,
	// and a subsequence of a path-ordered run is path-ordered.
	ix.catOff = make([]int32, ds.NumCategories()+1)
	for _, pos := range ix.all {
		ix.catOff[ds.Category(int(pos))+1]++
	}
	for c := 1; c < len(ix.catOff); c++ {
		ix.catOff[c] += ix.catOff[c-1]
	}
	next := append([]int32(nil), ix.catOff[:len(ix.catOff)-1]...)
	ix.byCat = make([]int32, len(ix.all))
	for _, pos := range ix.all {
		c := ds.Category(int(pos))
		ix.byCat[next[c]] = pos
		next[c]++
	}
	return ix
}

// NewPointIndex indexes pts, which must be finite (the split recursion
// never separates NaN coordinates), with position i at pts[i]. It copies
// the coordinates and has no categories: Nearest and Gather take
// dataset.NoCategory.
func NewPointIndex(pts []geo.Point) *Index {
	xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return build(xs, ys, geo.RectFromPoints(pts))
}

// build orders the positions of the points (xs[i], ys[i]), which bounds
// contains, along the midpoint tree over bounds.
func build(xs, ys []float64, bounds geo.Rect) *Index {
	pts := make([]pathPoint, len(xs))
	for i := range pts {
		pts[i] = pathPoint{xs[i], ys[i], int32(i)}
	}
	order(pts, bounds, 0)
	all := make([]int32, len(pts))
	for i, p := range pts {
		all[i] = p.pos
	}
	return &Index{xs: xs, ys: ys, bounds: bounds, all: all}
}

// pathPoint is one point of the build: its coordinates beside its
// position, so the split recursion reads contiguous memory.
type pathPoint struct {
	x, y float64
	pos  int32
}

// order is the split recursion, run once: it partitions pts in place,
// low half first, until a node holds one point or is degenerate. A
// degenerate node's points stay unordered.
func order(pts []pathPoint, rect geo.Rect, level int) {
	for len(pts) > 1 && !degenerate(rect) {
		low, high, mid, onX := halves(rect, level)
		lo, hi := 0, len(pts)
		for lo < hi {
			c := pts[lo].y
			if onX {
				c = pts[lo].x
			}
			if c <= mid {
				lo++
			} else {
				hi--
				pts[lo], pts[hi] = pts[hi], pts[lo]
			}
		}
		order(pts[:lo], low, level+1)
		pts, rect, level = pts[lo:], high, level+1
	}
}

// halves splits rect at level, on the x axis at even levels and the y
// axis at odd ones. A point whose coordinate is <= mid lies in the low
// half, whose rectangle ends on the midpoint; the high half starts one
// ulp past it.
func halves(rect geo.Rect, level int) (low, high geo.Rect, mid float64, onX bool) {
	low, high = rect, rect
	if level%2 == 0 { // split the horizontal dimension (vertical cut line)
		mid = (rect.MinX + rect.MaxX) / 2
		low.MaxX, high.MinX = mid, math.Nextafter(mid, math.Inf(1))
		return low, high, mid, true
	}
	// split the vertical dimension (horizontal cut line)
	mid = (rect.MinY + rect.MaxY) / 2
	low.MaxY, high.MinY = mid, math.Nextafter(mid, math.Inf(1))
	return low, high, mid, false
}

// degenerate guards against rectangles too small to split further (all
// points coincide, or floating-point midpoints stopped making progress)
// whose diagonal still exceeds the radius only in pathological inputs.
func degenerate(rect geo.Rect) bool {
	midX := (rect.MinX + rect.MaxX) / 2
	midY := (rect.MinY + rect.MaxY) / 2
	return (midX <= rect.MinX || midX >= rect.MaxX) && (midY <= rect.MinY || midY >= rect.MaxY)
}

// cut returns how many of a node's run lie in its low half. The build
// put them first, so a binary search on the split test finds the
// boundary. run must hold more than one position of a node that is not
// degenerate, or a single position.
func (ix *Index) cut(run []int32, mid float64, onX bool) int {
	coord := ix.ys
	if onX {
		coord = ix.xs
	}
	lo, hi := 0, len(run)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if coord[run[h]] <= mid {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// run returns the positions of category cat in path order, every
// position for dataset.NoCategory, and nil for an unknown category.
func (ix *Index) run(cat dataset.CategoryID) []int32 {
	if cat == dataset.NoCategory {
		return ix.all
	}
	if cat < 0 || int(cat)+1 >= len(ix.catOff) {
		return nil
	}
	return ix.byCat[ix.catOff[cat]:ix.catOff[cat+1]]
}

func (ix *Index) loc(pos int32) geo.Point { return geo.Point{X: ix.xs[pos], Y: ix.ys[pos]} }

// Partition divides the data space for the query radius
// radius = beta*||V_t*||. With radius = +Inf (the SEQ relaxation) the whole
// space is a single core subspace with an empty auxiliary band. A zero or
// negative radius is rejected: it would admit no tuple with two distinct
// locations, and the split recursion below would not terminate.
func (ix *Index) Partition(radius float64) (*Partition, error) {
	if len(ix.all) == 0 {
		return &Partition{Radius: radius, Bounds: geo.EmptyRect()}, nil
	}
	if math.IsNaN(radius) || radius <= 0 {
		return nil, fmt.Errorf("partition: radius must be positive, got %g", radius)
	}
	p := &Partition{Radius: radius, Bounds: ix.bounds}
	if math.IsInf(radius, 1) {
		p.Subspaces = []Subspace{{Core: ix.bounds, AC: ix.bounds, CorePoints: ix.all}}
		return p, nil
	}
	// Count the cores first so the slice is allocated once.
	n := 0
	ix.cores(ix.all, ix.bounds, 0, radius, func([]int32, geo.Rect) { n++ })
	p.Subspaces = make([]Subspace, 0, n)
	ix.cores(ix.all, ix.bounds, 0, radius, func(run []int32, rect geo.Rect) {
		p.Subspaces = append(p.Subspaces, Subspace{
			Core:       rect,
			AC:         rect.Inflate(radius).Intersect(ix.bounds),
			CorePoints: run,
		})
	})
	return p, nil
}

// cores calls emit for each non-empty node under rect whose diagonal is
// below the radius or which is degenerate, in the split recursion's
// order, with the node's run and rectangle.
func (ix *Index) cores(run []int32, rect geo.Rect, level int, radius float64, emit func([]int32, geo.Rect)) {
	for len(run) > 0 {
		if rect.Diagonal() < radius || degenerate(rect) {
			emit(run, rect)
			return
		}
		low, high, mid, onX := halves(rect, level)
		k := ix.cut(run, mid, onX)
		ix.cores(run[:k], low, level+1, radius, emit)
		run, rect, level = run[k:], high, level+1
	}
}

// Gather appends to dst, in path order, the positions of category cat
// (every position for dataset.NoCategory) that the closed rectangle
// region contains: the runs of the nodes region covers, and the points
// of the nodes it cuts that it contains.
func (ix *Index) Gather(dst []int32, cat dataset.CategoryID, region geo.Rect) []int32 {
	return ix.gather(dst, ix.run(cat), ix.bounds, 0, region)
}

func (ix *Index) gather(dst, run []int32, rect geo.Rect, level int, region geo.Rect) []int32 {
	for len(run) > 0 && region.Intersects(rect) {
		if region.ContainsRect(rect) {
			return append(dst, run...)
		}
		if len(run) == 1 || degenerate(rect) {
			// A leaf of the build: a degenerate node is unordered.
			for _, pos := range run {
				if region.Contains(ix.loc(pos)) {
					dst = append(dst, pos)
				}
			}
			return dst
		}
		low, high, mid, onX := halves(rect, level)
		k := ix.cut(run, mid, onX)
		dst = ix.gather(dst, run[:k], low, level+1, region)
		run, rect, level = run[k:], high, level+1
	}
	return dst
}

// Neighbor is one nearest-object result.
type Neighbor struct {
	Pos  int32
	Dist float64
}

// Nearest returns the k objects of category cat (every object for
// dataset.NoCategory) nearest to q, by distance and then position, or
// fewer when the category holds fewer. The search is depth-first: it
// descends the half on q's side of each split first, and skips a half
// whose rectangle lies farther from q than the k-th object found. A half
// at exactly that distance may hold a tie of lower position, so it is
// searched. The result is the search's only allocation.
func (ix *Index) Nearest(q geo.Point, k int, cat dataset.CategoryID) []Neighbor {
	run := ix.run(cat)
	if k <= 0 || len(run) == 0 {
		return nil
	}
	return ix.nearest(make([]Neighbor, 0, min(k, len(run))), run, ix.bounds, 0, q, k)
}

// nearest merges the objects of the node with run and rect at level into
// out, the k nearest to q found so far.
func (ix *Index) nearest(out []Neighbor, run []int32, rect geo.Rect, level int, q geo.Point, k int) []Neighbor {
	if len(out) == k && rect.MinDistPoint(q) > out[k-1].Dist {
		return out
	}
	if len(run) == 1 || degenerate(rect) {
		// A leaf of the build: a degenerate node is unordered.
		for _, pos := range run {
			out = insertNeighbor(out, Neighbor{Pos: pos, Dist: ix.loc(pos).Dist(q)}, k)
		}
		return out
	}
	low, high, mid, onX := halves(rect, level)
	c := ix.cut(run, mid, onX)
	near, far, nearRect, farRect := run[:c], run[c:], low, high
	side := q.Y
	if onX {
		side = q.X
	}
	if side > mid {
		near, far, nearRect, farRect = far, near, high, low
	}
	if len(near) > 0 {
		out = ix.nearest(out, near, nearRect, level+1, q, k)
	}
	if len(far) > 0 {
		out = ix.nearest(out, far, farRect, level+1, q, k)
	}
	return out
}

// insertNeighbor inserts nb into out, which is sorted ascending by (dist,
// pos) and holds at most k, without growing it past its capacity: when
// out holds k, its last neighbour drops off.
func insertNeighbor(out []Neighbor, nb Neighbor, k int) []Neighbor {
	i, _ := slices.BinarySearchFunc(out, nb, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
	})
	if i >= k {
		return out
	}
	if len(out) < k {
		out = append(out, Neighbor{})
	}
	copy(out[i+1:], out[i:])
	out[i] = nb
	return out
}
