package partition

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
)

func randPoints(rng *rand.Rand, n int, extent float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return pts
}

// pointsDataset builds a dataset with one object at each of pts, object
// i in category i % cats.
func pointsDataset(t testing.TB, pts []geo.Point, cats int) *dataset.Dataset {
	t.Helper()
	b := &dataset.Builder{}
	ids := make([]dataset.CategoryID, cats)
	for c := range ids {
		ids[c] = b.Category(fmt.Sprintf("c%d", c))
	}
	for i, p := range pts {
		b.Add(dataset.Object{ID: int64(i), Loc: p, Category: ids[i%cats]})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// newIndex indexes pts, object i in category i % 3.
func newIndex(t testing.TB, pts []geo.Point) *Index {
	return NewIndex(pointsDataset(t, pts, 3))
}

func TestEmptyIndex(t *testing.T) {
	ix := newIndex(t, nil)
	p, err := ix.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 0 {
		t.Errorf("empty index produced %d subspaces", len(p.Subspaces))
	}
	if got := ix.Gather(nil, dataset.NoCategory, geo.Rect{MaxX: 1, MaxY: 1}); len(got) != 0 {
		t.Errorf("empty index gathered %v", got)
	}
	if got := ix.Nearest(geo.Point{}, 3, dataset.NoCategory); len(got) != 0 {
		t.Errorf("empty index found neighbors %v", got)
	}
	if got := NewPointIndex(nil).Nearest(geo.Point{}, 3, dataset.NoCategory); len(got) != 0 {
		t.Errorf("empty point index found neighbors %v", got)
	}
}

func TestInvalidRadius(t *testing.T) {
	ix := newIndex(t, []geo.Point{{X: 1, Y: 1}})
	for _, r := range []float64{0, -1, math.NaN()} {
		if _, err := ix.Partition(r); err == nil {
			t.Errorf("radius %g should be rejected", r)
		}
	}
}

func TestInfiniteRadiusSingleSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := pointsDataset(t, randPoints(rng, 100, 50), 3)
	p, err := NewIndex(ds).Partition(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 1 {
		t.Fatalf("got %d subspaces, want 1", len(p.Subspaces))
	}
	ss := p.Subspaces[0]
	if len(ss.CorePoints) != 100 || ss.ACPoints != nil {
		t.Errorf("core/ac points = %d/%d, want 100 and no ac list", len(ss.CorePoints), len(ss.ACPoints))
	}
	if ss.Core != ds.Bounds() || ss.AC != ds.Bounds() {
		t.Error("infinite radius must cover whole bounds")
	}
}

func TestCoresDisjointAndCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 500, 3000} {
		pts := randPoints(rng, n, 100)
		ix := newIndex(t, pts)
		for _, radius := range []float64{5, 20, 80, 300} {
			p, err := ix.Partition(radius)
			if err != nil {
				t.Fatal(err)
			}
			// every point in exactly one core
			counts := make([]int, n)
			for _, ss := range p.Subspaces {
				for _, pos := range ss.CorePoints {
					counts[pos]++
				}
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d radius=%g: point %d in %d cores, want 1", n, radius, i, c)
				}
			}
			// exactly one core rectangle contains each point, and lists it
			for i, pt := range pts {
				owners := 0
				for _, ss := range p.Subspaces {
					if !ss.Core.Contains(pt) {
						continue
					}
					owners++
					if !slices.Contains(ss.CorePoints, int32(i)) {
						t.Fatalf("point %d not listed in its core subspace", i)
					}
				}
				if owners != 1 {
					t.Fatalf("point %d in %d core rects, want 1", i, owners)
				}
			}
		}
	}
}

func TestCoreDiagonalBelowRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ix := newIndex(t, randPoints(rng, 2000, 100))
	radius := 12.0
	p, err := ix.Partition(radius)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) < 2 {
		t.Fatalf("expected multiple subspaces, got %d", len(p.Subspaces))
	}
	for i, ss := range p.Subspaces {
		if d := ss.Core.Diagonal(); d >= radius {
			t.Errorf("subspace %d core diagonal %g >= radius %g", i, d, radius)
		}
	}
}

func TestACBandContainsNeighbors(t *testing.T) {
	// Every point within `radius` of a core point must be among the
	// ac-subspace's points — that is the property guaranteeing no valid
	// tuple is missed.
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 800, 60)
	ix := newIndex(t, pts)
	radius := 7.5
	p, err := ix.Partition(radius)
	if err != nil {
		t.Fatal(err)
	}
	for si := range p.Subspaces {
		ss := &p.Subspaces[si]
		inAC := map[int32]bool{}
		for _, pos := range ix.Gather(nil, dataset.NoCategory, ss.AC) {
			inAC[pos] = true
		}
		for _, cp := range ss.CorePoints {
			if !inAC[cp] {
				t.Fatalf("core point %d missing from its ac-subspace", cp)
			}
			for j, q := range pts {
				if pts[cp].Dist(q) <= radius && !inAC[int32(j)] {
					t.Fatalf("point %d within radius of core point %d but outside ac-subspace", j, cp)
				}
			}
		}
	}
}

func TestACWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := newIndex(t, randPoints(rng, 300, 40))
	p, err := ix.Partition(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range p.Subspaces {
		if !p.Bounds.ContainsRect(ss.AC) {
			t.Errorf("ac-subspace %v exceeds bounds %v", ss.AC, p.Bounds)
		}
		if !ss.AC.ContainsRect(ss.Core) {
			t.Errorf("ac %v does not contain core %v", ss.AC, ss.Core)
		}
	}
}

func TestAllPointsCoincide(t *testing.T) {
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Point{X: 5, Y: 5}
	}
	ix := newIndex(t, pts)
	p, err := ix.Partition(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 1 {
		t.Fatalf("coincident points should form 1 subspace, got %d", len(p.Subspaces))
	}
	if len(p.Subspaces[0].CorePoints) != 20 {
		t.Errorf("core points = %d", len(p.Subspaces[0].CorePoints))
	}
}

func TestPartitionCountGrowsAsRadiusShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := newIndex(t, randPoints(rng, 1000, 100))
	var prev int
	for i, radius := range []float64{100, 25, 6} {
		p, err := ix.Partition(radius)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && len(p.Subspaces) < prev {
			t.Errorf("subspace count decreased when radius shrank: %d -> %d", prev, len(p.Subspaces))
		}
		prev = len(p.Subspaces)
	}
}
