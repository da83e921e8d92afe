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
// Lemma 1 discipline: algorithms enumerate a tuple only inside the
// ac-subspace whose core contains the tuple's first point, so every
// candidate is enumerated exactly once across all subspaces.
package partition

import (
	"fmt"
	"math"

	"spatialseq/internal/geo"
	"spatialseq/internal/rtree"
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
	// CorePoints are dataset positions of points inside Core.
	CorePoints []int32
	// ACPoints are dataset positions of points inside AC (a superset of
	// CorePoints).
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

// Index wraps the per-dataset immutable state needed to partition: the
// point locations and an R-tree over them. Build it once per dataset and
// reuse it across queries (the partition itself depends on the query
// radius, the index does not).
type Index struct {
	pts   []geo.Point
	tree  *rtree.Tree
	cache partitionCache
}

// NewIndex builds the partitioning index over the given point locations.
// pts[i] must be the location of dataset object i.
func NewIndex(pts []geo.Point) *Index {
	return &Index{pts: pts, tree: rtree.New(pts, nil)}
}

// NumPoints returns the number of indexed points.
func (ix *Index) NumPoints() int { return len(ix.pts) }

// Bounds returns the bounding rectangle of the indexed points.
func (ix *Index) Bounds() geo.Rect { return ix.tree.Bounds() }

// Tree exposes the underlying R-tree for callers that need raw range
// queries (e.g. CSEQ-FP subspace filtering).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// Partition divides the data space for the query radius
// radius = beta*||V_t*||. With radius = +Inf (the SEQ relaxation) the whole
// space is a single core subspace with an empty auxiliary band. A zero or
// negative radius is rejected: it would admit no tuple with two distinct
// locations, and the split recursion below would not terminate.
func (ix *Index) Partition(radius float64) (*Partition, error) {
	if len(ix.pts) == 0 {
		return &Partition{Radius: radius, Bounds: geo.EmptyRect()}, nil
	}
	if math.IsNaN(radius) || radius <= 0 {
		return nil, fmt.Errorf("partition: radius must be positive, got %g", radius)
	}
	bounds := ix.tree.Bounds()
	p := &Partition{Radius: radius, Bounds: bounds}
	if math.IsInf(radius, 1) {
		all := ix.tree.Search(bounds, nil)
		p.Subspaces = []Subspace{{
			Core:       bounds,
			AC:         bounds,
			CorePoints: all,
			ACPoints:   all,
		}}
		return p, nil
	}
	// The split recursion redistributes this positions array in place, so
	// each leaf's CorePoints slice is a view into it: one O(n) allocation
	// per query instead of one R-tree range query per core subspace.
	positions := make([]int32, len(ix.pts))
	for i := range positions {
		positions[i] = int32(i)
	}
	var scratch []int32
	ix.split(positions, bounds, 0, radius, p, &scratch)
	return p, nil
}

// split recursively divides rect, alternating the split axis per level,
// collecting non-empty leaves whose diagonal is below the radius.
// positions must hold exactly the points inside rect and is reordered in
// place so each half receives a contiguous sub-slice. Each leaf's ac
// points are searched into *scratch, which the whole build reuses, and
// copied out at exact length.
func (ix *Index) split(positions []int32, rect geo.Rect, level int, radius float64, p *Partition, scratch *[]int32) {
	if len(positions) == 0 {
		return
	}
	if rect.Diagonal() < radius || degenerate(rect) {
		ac := rect.Inflate(radius).Intersect(p.Bounds)
		*scratch = ix.tree.Search(ac, (*scratch)[:0])
		p.Subspaces = append(p.Subspaces, Subspace{
			Core:       rect,
			AC:         ac,
			CorePoints: positions,
			ACPoints:   append(make([]int32, 0, len(*scratch)), *scratch...),
		})
		return
	}
	var left, right geo.Rect
	var inLeft func(geo.Point) bool
	if level%2 == 0 { // split the horizontal dimension (vertical cut line)
		mid := (rect.MinX + rect.MaxX) / 2
		left = geo.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: mid, MaxY: rect.MaxY}
		right = geo.Rect{MinX: math.Nextafter(mid, math.Inf(1)), MinY: rect.MinY, MaxX: rect.MaxX, MaxY: rect.MaxY}
		inLeft = func(pt geo.Point) bool { return pt.X <= mid }
	} else { // split the vertical dimension (horizontal cut line)
		mid := (rect.MinY + rect.MaxY) / 2
		left = geo.Rect{MinX: rect.MinX, MinY: rect.MinY, MaxX: rect.MaxX, MaxY: mid}
		right = geo.Rect{MinX: rect.MinX, MinY: math.Nextafter(mid, math.Inf(1)), MaxX: rect.MaxX, MaxY: rect.MaxY}
		inLeft = func(pt geo.Point) bool { return pt.Y <= mid }
	}
	// Hoare-style partition of positions by side of the cut line.
	lo, hi := 0, len(positions)
	for lo < hi {
		if inLeft(ix.pts[positions[lo]]) {
			lo++
		} else {
			hi--
			positions[lo], positions[hi] = positions[hi], positions[lo]
		}
	}
	ix.split(positions[:lo], left, level+1, radius, p, scratch)
	ix.split(positions[lo:], right, level+1, radius, p, scratch)
}

// degenerate guards against rectangles too small to split further (all
// points coincide, or floating-point midpoints stopped making progress)
// whose diagonal still exceeds the radius only in pathological inputs.
func degenerate(rect geo.Rect) bool {
	midX := (rect.MinX + rect.MaxX) / 2
	midY := (rect.MinY + rect.MaxY) / 2
	return (midX <= rect.MinX || midX >= rect.MaxX) && (midY <= rect.MinY || midY >= rect.MaxY)
}

// CoreOf returns the index of the subspace whose core contains p, or -1.
// Cores are disjoint so at most one matches.
func (p *Partition) CoreOf(pt geo.Point) int {
	for i := range p.Subspaces {
		if p.Subspaces[i].Core.Contains(pt) {
			return i
		}
	}
	return -1
}

// Stats summarises a partition for diagnostics and tests.
type Stats struct {
	NumSubspaces int
	MaxCoreDiag  float64
	TotalCorePts int
	TotalACPts   int // counts multiplicity across overlapping bands
	MaxACPoints  int
}

// Stats computes summary statistics.
func (p *Partition) Stats() Stats {
	s := Stats{NumSubspaces: len(p.Subspaces)}
	for i := range p.Subspaces {
		ss := &p.Subspaces[i]
		if d := ss.Core.Diagonal(); d > s.MaxCoreDiag {
			s.MaxCoreDiag = d
		}
		s.TotalCorePts += len(ss.CorePoints)
		s.TotalACPts += len(ss.ACPoints)
		if len(ss.ACPoints) > s.MaxACPoints {
			s.MaxACPoints = len(ss.ACPoints)
		}
	}
	return s
}
