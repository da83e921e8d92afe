package simil

import (
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// TestBoundCoversSubspaceMaxima holds the subspace bound to what a full
// gather finds, on integer-grid data whose points sit on core split
// lines, on ac-band edges and on grid cell edges (a radius of 8 makes
// the bound grid's cells 4 wide), with zero-norm attribute vectors on
// both sides, with a pinned dimension, and with an example of the
// rarest category only, whose population caps the grid's cells per axis
// below the radius's:
//   - for every subspace and free dimension, the grid's r̄_d is at least
//     the largest similarity among the region's candidates;
//   - a subspace OrderByBound drops has no candidate for some dimension,
//     or a pinned object outside its region;
//   - a kept subspace's bound is at least the root-level test HSP and
//     LORA take on its true maxima, and the bounds come best first.
func TestBoundCoversSubspaceMaxima(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ds := gridDataset(t, rng, 3000, []float64{0.9, 0.09, 0.01}, 7)
	ix := partition.NewIndex(ds)
	ex := query.Example{
		Categories: []dataset.CategoryID{2, 1, 0, 2},
		Locations:  []geo.Point{{X: 10, Y: 10}, {X: 13, Y: 14}, {X: 10, Y: 16}, {X: 12, Y: 11}},
		Attrs:      [][]float64{{0.2, 0.5, 0.1}, {0.9, 0.1, 0.4}, {0.3, 0.3, 0.3}, {0, 0, 0}},
	}
	pinned := ex
	pinned.Fixed = []query.FixedPoint{{Dim: 1, Obj: ds.CategoryObjects(1)[5]}}
	rare := query.Example{
		Categories: []dataset.CategoryID{2, 2, 2},
		Locations:  []geo.Point{{X: 20, Y: 20}, {X: 24, Y: 21}, {X: 22, Y: 26}},
		Attrs:      [][]float64{{0.7, 0.1, 0.2}, {0, 0, 0}, {0.1, 0.8, 0.3}},
	}
	var cellEdge, dropped, kept, capped int
	for _, e := range []query.Example{ex, pinned, rare} {
		q := &query.Query{Variant: query.CSEQ, Example: e}
		if len(e.Fixed) > 0 {
			q.Variant = query.CSEQFP
		}
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		for _, radius := range []float64{6, 8, 16} {
			part, err := ix.Partition(radius)
			if err != nil {
				t.Fatal(err)
			}
			c := NewContext(ds, q)
			c.PrepareMemoShared()
			bg, err := c.newBoundGrid(part.Bounds, part.Radius)
			if err != nil {
				t.Fatal(err)
			}
			cw, _ := bg.g.CellSize()
			if float64(bg.g.D()) < math.Ceil(max(part.Bounds.Width(), part.Bounds.Height())/(radius/2)) {
				capped++
			}
			work := make([]*partition.Subspace, len(part.Subspaces))
			maxima := make(map[*partition.Subspace][]float64, len(work))
			for si := range part.Subspaces {
				ss := &part.Subspaces[si]
				work[si] = ss
				maxima[ss] = trueMaxima(c, ss)
				for d, truth := range maxima[ss] {
					if c.Ex.FixedDim(d) >= 0 {
						continue
					}
					region := ss.AC
					if d == 0 {
						region = ss.Core
					}
					if got := bg.max(d, bg.span(region)); got < truth {
						t.Fatalf("radius %g subspace %d dim %d: grid maximum %v below the region's %v", radius, si, d, got, truth)
					}
					for _, pos := range ds.CategoryObjects(c.Ex.Categories[d]) {
						if p := ds.Loc(int(pos)); region.Contains(p) && (onCellEdge(p.X, cw) || onCellEdge(p.Y, cw)) {
							cellEdge++
						}
					}
				}
			}
			order, bounds, err := c.OrderByBound(part, append([]*partition.Subspace(nil), work...))
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[*partition.Subspace]float64, len(order))
			for i, ss := range order {
				in[ss] = bounds[i]
				if i > 0 && bounds[i] > bounds[i-1] {
					t.Fatalf("radius %g: bound %d (%v) above bound %d (%v)", radius, i, bounds[i], i-1, bounds[i-1])
				}
			}
			for si, ss := range work {
				root := rootTest(c, maxima[ss])
				b, ok := in[ss]
				switch {
				case !ok && !math.IsInf(root, -1):
					t.Errorf("radius %g subspace %d: dropped, but every dimension has a candidate", radius, si)
				case !ok:
					dropped++
				case b < root:
					t.Errorf("radius %g subspace %d: bound %v below the root test %v", radius, si, b, root)
				default:
					kept++
				}
			}
		}
	}
	if cellEdge == 0 || dropped == 0 || kept == 0 || capped == 0 {
		t.Errorf("%d candidates on grid cell edges, %d subspaces dropped, %d kept, %d grids capped by population: each must occur",
			cellEdge, dropped, kept, capped)
	}
}

// trueMaxima gathers every candidate of every dimension of ss and
// returns each dimension's largest similarity, -Inf where it has none.
func trueMaxima(c *Context, ss *partition.Subspace) []float64 {
	out := make([]float64, c.M)
	for d := range out {
		region := ss.AC
		if d == 0 {
			region = ss.Core
		}
		out[d] = math.Inf(-1)
		if fixed := c.Ex.FixedDim(d); fixed >= 0 {
			if region.Contains(c.DS.Loc(int(fixed))) {
				out[d] = c.AttrSim(d, fixed)
			}
			continue
		}
		cat := c.Ex.Categories[d]
		if list := candidatesInto(c, nil, d, testutil.InRegion(c.DS, c.DS.CategoryObjects(cat), cat, region)); len(list) > 0 {
			out[d] = list[0].Sim
		}
	}
	return out
}

// rootTest is the value HSP's dfs and LORA's cellDFS test a subspace's
// first root with, given its per-dimension maxima: the suffix maxima
// summed from the last dimension down, then the first root's own. It is
// -Inf when some dimension has no candidate.
func rootTest(c *Context, maxima []float64) float64 {
	suffix := make([]float64, c.M+1)
	for d := c.M - 1; d >= 0; d-- {
		if math.IsInf(maxima[d], -1) {
			return maxima[d]
		}
		suffix[d] = suffix[d+1] + maxima[d]
	}
	return c.Combine(1, c.AttrBoundRefined(0+maxima[0], 1, suffix))
}

// onCellEdge reports whether coordinate v lies on a boundary of the
// bound grid's cells of width w over [0, 64].
func onCellEdge(v, w float64) bool {
	k := math.Round(v / w)
	return k*w == v
}

// BenchmarkOrderByBound bounds and orders the 4,096 subspaces of a
// 200,000-point dataset over a 400 x 400 square.
func BenchmarkOrderByBound(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	ds := testutil.RandDataset(rng, 200000, 20, 4, 400)
	q := testutil.RandQuery(rng, ds, 3, 10, query.Params{K: 5, Alpha: 0.5, Beta: 1.5})
	if err := q.Validate(ds); err != nil {
		b.Fatal(err)
	}
	c := NewContext(ds, q)
	part, err := partition.NewIndex(ds).Partition(c.PartitionRadius())
	if err != nil {
		b.Fatal(err)
	}
	c.PrepareMemoShared()
	work := make([]*partition.Subspace, len(part.Subspaces))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range work {
			work[j] = &part.Subspaces[j]
		}
		if _, _, err := c.OrderByBound(part, work); err != nil {
			b.Fatal(err)
		}
	}
}
