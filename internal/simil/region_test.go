package simil

import (
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// gridDataset places n objects on the integer grid of [0, 64]^2, with
// the corners occupied so the data bounds are exactly that square. The
// partitioner then cuts at integer midpoints and inflates cores by an
// integer radius, so many points lie exactly on split lines and on
// ac-band edges. Category c holds about weights[c] of the objects. With
// zeroEvery > 0, every zeroEvery-th object gets an all-zero attribute
// vector.
func gridDataset(t *testing.T, rng *rand.Rand, n int, weights []float64, zeroEvery int) *dataset.Dataset {
	t.Helper()
	b := &dataset.Builder{}
	cats := make([]dataset.CategoryID, len(weights))
	for i := range weights {
		cats[i] = b.Category(string(rune('a' + i)))
	}
	pick := func() dataset.CategoryID {
		r := rng.Float64()
		for i, w := range weights {
			if r < w {
				return cats[i]
			}
			r -= w
		}
		return cats[len(cats)-1]
	}
	for i := 0; i < n; i++ {
		loc := geo.Point{X: float64(rng.Intn(65)), Y: float64(rng.Intn(65))}
		if i < 4 {
			loc = geo.Point{X: float64(64 * (i % 2)), Y: float64(64 * (i / 2))}
		}
		attr := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		if zeroEvery > 0 && i%zeroEvery == 0 {
			attr = []float64{0, 0, 0}
		}
		b.Add(dataset.Object{ID: int64(i), Loc: loc, Category: pick(), Attr: attr})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// onEdge reports whether p lies on r's boundary.
func onEdge(r geo.Rect, p geo.Point) bool {
	return p.X == r.MinX || p.X == r.MaxX || p.Y == r.MinY || p.Y == r.MaxY
}

// TestRegionCandidatesMatchScan holds RegionCandidatesInto to the full
// scan CandidatesBatchInto makes: for every subspace and dimension, both
// keep the same candidates with the same sims, and a maximum leads the
// unsorted run. Categories of very different sizes make the call walk
// the category for some lists and scan the subspace for others, and
// the walked lists must hold points on core split lines and on ac-band
// edges, where only a closed containment test agrees with CorePoints
// and the R-tree's ACPoints.
func TestRegionCandidatesMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := gridDataset(t, rng, 3000, []float64{0.9, 0.09, 0.01}, 0)
	ix := testutil.BuildIndex(ds)
	q := &query.Query{Variant: query.CSEQ, Example: query.Example{
		Categories: []dataset.CategoryID{2, 1, 0, 2},
		Locations:  []geo.Point{{X: 10, Y: 10}, {X: 13, Y: 14}, {X: 10, Y: 16}, {X: 12, Y: 11}},
		Attrs:      [][]float64{{0.2, 0.5, 0.1}, {0.9, 0.1, 0.4}, {0.3, 0.3, 0.3}, {0.1, 0.8, 0.6}},
	}}
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	var scanned, walkedCore, walkedAC, coreEdge, acEdge int
	for _, radius := range []float64{6, 16} {
		part, err := ix.Partition(radius)
		if err != nil {
			t.Fatal(err)
		}
		c := NewContext(ds, q)
		var bs BatchScratch
		for si := range part.Subspaces {
			ss := &part.Subspaces[si]
			for d := 0; d < c.M; d++ {
				region, positions := ss.AC, ss.ACPoints
				if d == 0 {
					region, positions = ss.Core, ss.CorePoints
				}
				want := c.CandidatesBatchInto(nil, d, positions, &bs)
				got := c.RegionCandidatesInto(nil, d, region, positions, &bs)
				if len(got) > 0 && got[0].Sim != want[0].Sim {
					t.Fatalf("radius %g subspace %d dim %d: run leads with sim %v, maximum is %v",
						radius, si, d, got[0].Sim, want[0].Sim)
				}
				SortCandidates(got)
				if !slices.Equal(got, want) {
					t.Fatalf("radius %g subspace %d dim %d: region gather %v, scan %v", radius, si, d, got, want)
				}
				if len(ds.CategoryObjects(q.Example.Categories[d])) >= len(positions) {
					scanned++
					continue
				}
				edge := &acEdge
				if d == 0 {
					walkedCore++
					edge = &coreEdge
				} else {
					walkedAC++
				}
				for _, cand := range want {
					if onEdge(region, ds.Loc(int(cand.Pos))) {
						*edge++
					}
				}
			}
		}
	}
	if scanned == 0 || walkedCore == 0 || walkedAC == 0 {
		t.Errorf("scanned %d lists, walked %d core and %d ac lists: every gather must run", scanned, walkedCore, walkedAC)
	}
	if coreEdge == 0 || acEdge == 0 {
		t.Errorf("walked lists hold %d core-edge and %d ac-edge points: the fixture must put points on both", coreEdge, acEdge)
	}
}
