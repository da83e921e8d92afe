package grid

import (
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/geo"
)

func mustGrid(t *testing.T, b geo.Rect, d int) *Grid {
	t.Helper()
	g := new(Grid)
	if err := g.Reset(b, d); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestNewValidation: Reset rejects a non-positive cell count and empty
// bounds, and leaves the grid as it was.
func TestNewValidation(t *testing.T) {
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 4, MaxY: 2}, 2)
	want := *g
	if err := g.Reset(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0); err == nil {
		t.Error("d=0 should fail")
	}
	if err := g.Reset(geo.EmptyRect(), 3); err == nil {
		t.Error("empty bounds should fail")
	}
	if *g != want {
		t.Errorf("a failed Reset changed the grid to %+v, want %+v", *g, want)
	}
}

func TestCellAssignment(t *testing.T) {
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 5)
	if g.NumCells() != 25 || g.D() != 5 {
		t.Fatalf("NumCells = %d, D = %d", g.NumCells(), g.D())
	}
	cases := []struct {
		p    geo.Point
		want int
	}{
		{geo.Point{X: 0.5, Y: 0.5}, 0},
		{geo.Point{X: 9.5, Y: 0.5}, 4},
		{geo.Point{X: 0.5, Y: 9.5}, 20},
		{geo.Point{X: 9.5, Y: 9.5}, 24},
		{geo.Point{X: 5, Y: 5}, 12},   // boundary lands in the upper cell
		{geo.Point{X: 10, Y: 10}, 24}, // max corner clamped into last cell
		{geo.Point{X: -1, Y: -1}, 0},  // outside clamps
		{geo.Point{X: 11, Y: 11}, 24},
	}
	for _, c := range cases {
		if got := g.Cell(c.p); got != c.want {
			t.Errorf("Cell(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := mustGrid(t, geo.Rect{MinX: -5, MinY: 3, MaxX: 15, MaxY: 13}, 7)
	for c := 0; c < g.NumCells(); c++ {
		r := g.CellRect(c)
		if got := g.Cell(r.Center()); got != c {
			t.Errorf("Cell(center of cell %d) = %d", c, got)
		}
		// random interior points map back
		for i := 0; i < 5; i++ {
			p := geo.Point{
				X: r.MinX + rng.Float64()*r.Width(),
				Y: r.MinY + rng.Float64()*r.Height(),
			}
			got := g.Cell(p)
			// boundary points may land in a neighbour; use strictly interior
			if p.X > r.MinX && p.X < r.MaxX && p.Y > r.MinY && p.Y < r.MaxY && got != c {
				t.Errorf("interior point %v of cell %d mapped to %d", p, c, got)
			}
		}
	}
}

func TestCellRectsTileBounds(t *testing.T) {
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 9, MaxY: 9}, 3)
	var area float64
	union := geo.EmptyRect()
	for c := 0; c < g.NumCells(); c++ {
		r := g.CellRect(c)
		area += r.Area()
		union = union.Union(r)
	}
	if math.Abs(area-81) > 1e-9 {
		t.Errorf("total cell area = %g, want 81", area)
	}
	if union != g.Bounds() {
		t.Errorf("cells union = %v, bounds %v", union, g.Bounds())
	}
}

func TestCellSize(t *testing.T) {
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 4}, 4)
	w, h := g.CellSize()
	if w != 2.5 || h != 1 {
		t.Errorf("CellSize = %g,%g", w, h)
	}
	if g.MaxCellSide() != 2.5 {
		t.Errorf("MaxCellSide = %g", g.MaxCellSide())
	}
}

func TestMinMaxDist(t *testing.T) {
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 5) // 2x2 cells
	if got := g.MinDist(0, 0); got != 0 {
		t.Errorf("MinDist self = %g", got)
	}
	if got := g.MinDist(0, 1); got != 0 {
		t.Errorf("adjacent MinDist = %g", got)
	}
	if got := g.MinDist(0, 2); got != 2 {
		t.Errorf("one-apart MinDist = %g, want 2", got)
	}
	wantMax := math.Sqrt(4*4 + 2*2)
	if got := g.MaxDist(0, 1); math.Abs(got-wantMax) > 1e-9 {
		t.Errorf("MaxDist(0,1) = %g, want %g", got, wantMax)
	}
}

func TestMinMaxDistSandwichProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 20, MaxY: 20}, 4)
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(g.NumCells())
		b := rng.Intn(g.NumCells())
		ra, rb := g.CellRect(a), g.CellRect(b)
		lo, hi := g.MinDist(a, b), g.MaxDist(a, b)
		p := geo.Point{X: ra.MinX + rng.Float64()*ra.Width(), Y: ra.MinY + rng.Float64()*ra.Height()}
		q := geo.Point{X: rb.MinX + rng.Float64()*rb.Width(), Y: rb.MinY + rng.Float64()*rb.Height()}
		d := p.Dist(q)
		if d < lo-1e-9 || d > hi+1e-9 {
			t.Fatalf("distance %g outside [%g,%g] for cells %d,%d", d, lo, hi, a, b)
		}
	}
}

func TestDegenerateOneCell(t *testing.T) {
	g := mustGrid(t, geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 1)
	if g.NumCells() != 1 {
		t.Fatalf("NumCells = %d", g.NumCells())
	}
	if g.Cell(geo.Point{X: 0.5, Y: 0.5}) != 0 {
		t.Error("everything maps to cell 0")
	}
	if g.CellRect(0) != g.Bounds() {
		t.Error("single cell covers bounds")
	}
}
