// Package grid provides the uniform D x D cell decomposition that LORA
// imposes on each ac-subspace. A Grid maps points to cells and exposes the
// per-cell geometry (rects, min/max inter-cell distances) that the
// cell-tuple bounds need.
package grid

import (
	"fmt"

	"spatialseq/internal/geo"
)

// Grid is a D x D decomposition of a rectangle. Cells are indexed
// 0..D*D-1 in row-major order (cell = row*D + col).
type Grid struct {
	bounds geo.Rect
	d      int
	cw, ch float64 // cell width / height
}

// Reset makes g the grid with d cells per side over bounds, in place,
// so one Grid can serve subspace after subspace. d must be >= 1 and
// bounds must be non-empty; on an error g is unchanged.
func (g *Grid) Reset(bounds geo.Rect, d int) error {
	if d < 1 {
		return fmt.Errorf("grid: cells per side must be >= 1, got %d", d)
	}
	if bounds.IsEmpty() {
		return fmt.Errorf("grid: empty bounds")
	}
	*g = Grid{
		bounds: bounds,
		d:      d,
		cw:     bounds.Width() / float64(d),
		ch:     bounds.Height() / float64(d),
	}
	return nil
}

// D returns the number of cells per side.
func (g *Grid) D() int { return g.d }

// NumCells returns D*D.
func (g *Grid) NumCells() int { return g.d * g.d }

// Bounds returns the gridded rectangle.
func (g *Grid) Bounds() geo.Rect { return g.bounds }

// CellSize returns the (width, height) of one cell. The paper's theory
// works with square cells of side d; our grids follow the subspace aspect
// ratio, so Theorem 3 style bounds use the cell diagonal via MaxCellSide.
func (g *Grid) CellSize() (w, h float64) { return g.cw, g.ch }

// MaxCellSide returns max(cell width, cell height) — the "d" in the
// accuracy analysis of Theorem 3.
func (g *Grid) MaxCellSide() float64 {
	if g.cw > g.ch {
		return g.cw
	}
	return g.ch
}

// Cell returns the cell index containing p. Points outside the bounds are
// clamped to the nearest boundary cell (the partitioner only feeds points
// inside the subspace, but degenerate boundary arithmetic must not panic).
func (g *Grid) Cell(p geo.Point) int {
	col := g.axisCell(p.X-g.bounds.MinX, g.cw)
	row := g.axisCell(p.Y-g.bounds.MinY, g.ch)
	return row*g.d + col
}

func (g *Grid) axisCell(off, size float64) int {
	if size <= 0 {
		return 0
	}
	c := int(off / size)
	if c < 0 {
		c = 0
	}
	if c >= g.d {
		c = g.d - 1
	}
	return c
}

// CellRect returns the rectangle of cell c.
func (g *Grid) CellRect(c int) geo.Rect {
	row, col := c/g.d, c%g.d
	return geo.Rect{
		MinX: g.bounds.MinX + float64(col)*g.cw,
		MinY: g.bounds.MinY + float64(row)*g.ch,
		MaxX: g.bounds.MinX + float64(col+1)*g.cw,
		MaxY: g.bounds.MinY + float64(row+1)*g.ch,
	}
}

// MinDist returns the minimal distance between any point of cell a and any
// point of cell b (0 for the same or adjacent cells).
func (g *Grid) MinDist(a, b int) float64 {
	return g.CellRect(a).MinDist(g.CellRect(b))
}

// MaxDist returns the maximal distance between any point of cell a and any
// point of cell b.
func (g *Grid) MaxDist(a, b int) float64 {
	return g.CellRect(a).MaxDist(g.CellRect(b))
}
