package simil

import (
	"cmp"
	"math"
	"slices"

	"spatialseq/internal/geo"
	"spatialseq/internal/grid"
	"spatialseq/internal/partition"
)

// maxBoundCells caps the bound grid's cells per axis.
const maxBoundCells = 256

// boundGrid holds, per free example dimension, the largest memoized
// attribute similarity of the dimension's category objects in each cell
// of a grid over the partitioned space.
type boundGrid struct {
	g     grid.Grid
	cells [][]float64 // [dim][cell], -Inf where no object lies; empty for a pinned dimension
}

// ranked is a subspace of the plan, by its index in work, with its
// bound.
type ranked struct {
	bound float64
	i     int
}

// OrderByBound bounds every subspace of work before anything is
// gathered from it and returns the subspaces that can hold a tuple,
// best first, with their bounds. A subspace's bound is
// Combine(1, Σ_d r̄_d / M): spatial similarity at most 1, and each
// dimension's attribute similarity at most r̄_d, the largest memoized
// similarity in the grid cells its region spans (its Core for
// dimension 0, its AC for the others), or the pinned object's own. A
// subspace whose region has no object for some dimension, or does not
// hold a pinned object, holds no tuple and is dropped. Ties keep work's
// order. The memo must be filled eagerly first (PrepareMemoShared).
//
// The grid's cells are about half of part.Radius on a side, fewer when
// the categories are small (newBoundGrid). Objects and region corners go through the
// same clamped grid.Grid.Cell, which is monotone per axis, so a region
// spans the cell of every object it contains and r̄_d is at least the
// region's true maximum. The sum is formed the way the searches form
// their suffix maxima (rbarSuffix, from the last dimension down), so by
// the monotonicity of float addition, division and Combine the bound is
// at least the root-level test HSP's dfs and LORA's cellDFS take on a
// subspace's first root. A subspace whose bound the results reject
// would therefore have been cut at its first root.
func (c *Context) OrderByBound(part *partition.Partition, work []*partition.Subspace) ([]*partition.Subspace, []float64, error) {
	bg, err := c.newBoundGrid(part.Bounds, part.Radius)
	if err != nil {
		return nil, nil, err
	}
	rs := c.bufs.ranked[:0]
	for i, ss := range work {
		if b := bg.bound(c, ss.Core, ss.AC); !math.IsInf(b, -1) {
			rs = append(rs, ranked{b, i})
		}
	}
	c.bufs.ranked = rs
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := cmp.Compare(b.bound, a.bound); c != 0 {
			return c
		}
		return a.i - b.i
	})
	c.bufs.kept, c.bufs.bounds = resize(c.bufs.kept, len(rs)), resize(c.bufs.bounds, len(rs))
	kept, bounds := c.bufs.kept, c.bufs.bounds
	for i, r := range rs {
		kept[i], bounds[i] = work[r.i], r.bound
	}
	return kept, bounds, nil
}

// newBoundGrid bins each free dimension's category objects into a grid
// over bounds, keeping each cell's largest memoized similarity. The
// cells are half of radius on a side, but no more per axis than
// maxBoundCells or the square root of the largest free dimension's
// category population: a grid with more cells than objects only costs
// its fill. A NaN size (an empty extent over a zero radius) gives one
// cell.
func (c *Context) newBoundGrid(bounds geo.Rect, radius float64) (*boundGrid, error) {
	pop := 0
	for dim := 0; dim < c.M; dim++ {
		if c.Ex.FixedDim(dim) < 0 {
			pop = max(pop, len(c.DS.CategoryObjects(c.Ex.Categories[dim])))
		}
	}
	d := 1
	if n := min(math.Ceil(max(bounds.Width(), bounds.Height())/(radius/2)), math.Ceil(math.Sqrt(float64(pop))), maxBoundCells); n > 1 {
		d = int(n)
	}
	bg := &c.bufs.bound
	if err := bg.g.Reset(bounds, d); err != nil {
		return nil, err
	}
	bg.cells = resize(bg.cells, c.M)
	for dim := 0; dim < c.M; dim++ {
		if c.Ex.FixedDim(dim) >= 0 {
			bg.cells[dim] = bg.cells[dim][:0]
			continue
		}
		cells := resize(bg.cells[dim], bg.g.NumCells())
		for i := range cells {
			cells[i] = math.Inf(-1)
		}
		memo := c.memo[c.memoOff[dim]:c.memoOff[dim+1]]
		for r, pos := range c.DS.CategoryObjects(c.Ex.Categories[dim]) {
			if cell := bg.g.Cell(c.DS.Loc(int(pos))); memo[r] > cells[cell] {
				cells[cell] = memo[r]
			}
		}
		bg.cells[dim] = cells
	}
	return bg, nil
}

// bound is the subspace bound OrderByBound documents, -Inf for a
// subspace that holds no tuple.
func (bg *boundGrid) bound(c *Context, core, ac geo.Rect) float64 {
	coreCells, acCells := bg.span(core), bg.span(ac)
	var sum float64
	for d := c.M - 1; d >= 0; d-- {
		region, cells := ac, acCells
		if d == 0 {
			region, cells = core, coreCells
		}
		var rbar float64
		if fixed := c.Ex.FixedDim(d); fixed >= 0 {
			if !region.Contains(c.DS.Loc(int(fixed))) {
				return math.Inf(-1)
			}
			rbar = c.AttrSim(d, fixed)
		} else if rbar = bg.max(d, cells); math.IsInf(rbar, -1) {
			return rbar
		}
		sum += rbar
	}
	return c.Combine(1, sum/float64(c.M))
}

// cellSpan is the block of grid cells a region spans: rows r0..r1 and
// columns c0..c1.
type cellSpan struct{ r0, c0, r1, c1 int }

// span returns the cells from region's lower corner's to its upper
// corner's.
func (bg *boundGrid) span(region geo.Rect) cellSpan {
	n := bg.g.D()
	lo := bg.g.Cell(geo.Point{X: region.MinX, Y: region.MinY})
	hi := bg.g.Cell(geo.Point{X: region.MaxX, Y: region.MaxY})
	return cellSpan{lo / n, lo % n, hi / n, hi % n}
}

// max returns the largest similarity binned for dimension d in the
// cells of sp, -Inf when they hold no object.
func (bg *boundGrid) max(d int, sp cellSpan) float64 {
	n, cells := bg.g.D(), bg.cells[d]
	best := math.Inf(-1)
	for row := sp.r0; row <= sp.r1; row++ {
		for _, v := range cells[row*n+sp.c0 : row*n+sp.c1+1] {
			if v > best {
				best = v
			}
		}
	}
	return best
}
