package partition

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/geo"
)

func randPoints(rng *rand.Rand, n int, extent float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * extent, Y: rng.Float64() * extent}
	}
	return pts
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex(nil)
	p, err := ix.Partition(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 0 {
		t.Errorf("empty index produced %d subspaces", len(p.Subspaces))
	}
}

func TestInvalidRadius(t *testing.T) {
	ix := NewIndex([]geo.Point{{X: 1, Y: 1}})
	for _, r := range []float64{0, -1, math.NaN()} {
		if _, err := ix.Partition(r); err == nil {
			t.Errorf("radius %g should be rejected", r)
		}
	}
}

func TestInfiniteRadiusSingleSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 100, 50)
	ix := NewIndex(pts)
	p, err := ix.Partition(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Subspaces) != 1 {
		t.Fatalf("got %d subspaces, want 1", len(p.Subspaces))
	}
	ss := p.Subspaces[0]
	if len(ss.CorePoints) != 100 || len(ss.ACPoints) != 100 {
		t.Errorf("core/ac points = %d/%d, want 100/100", len(ss.CorePoints), len(ss.ACPoints))
	}
	if ss.Core != ix.Bounds() || ss.AC != ix.Bounds() {
		t.Error("infinite radius must cover whole bounds")
	}
}

func TestCoresDisjointAndCovering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 10, 500, 3000} {
		pts := randPoints(rng, n, 100)
		ix := NewIndex(pts)
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
			// CoreOf agrees with membership
			for i, pt := range pts {
				si := p.CoreOf(pt)
				if si < 0 {
					t.Fatalf("point %d in no core rect", i)
				}
				found := false
				for _, pos := range p.Subspaces[si].CorePoints {
					if int(pos) == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("point %d not listed in its core subspace", i)
				}
			}
		}
	}
}

func TestCoreDiagonalBelowRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randPoints(rng, 2000, 100)
	ix := NewIndex(pts)
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
	// Every point within `radius` of a core point must be in the
	// ac-subspace point list — that is the property guaranteeing no valid
	// tuple is missed.
	rng := rand.New(rand.NewSource(4))
	pts := randPoints(rng, 800, 60)
	ix := NewIndex(pts)
	radius := 7.5
	p, err := ix.Partition(radius)
	if err != nil {
		t.Fatal(err)
	}
	for si := range p.Subspaces {
		ss := &p.Subspaces[si]
		inAC := make(map[int32]bool, len(ss.ACPoints))
		for _, pos := range ss.ACPoints {
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
	pts := randPoints(rng, 300, 40)
	ix := NewIndex(pts)
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

// TestACPointsExactAndOwned: every subspace's ACPoints is the R-tree's
// search of its ac rectangle, element for element, in a slice of its
// own sized exactly, although one buffer serves every search of a build.
func TestACPointsExactAndOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ix := NewIndex(randPoints(rng, 1500, 100))
	for _, radius := range []float64{3, 8, 20, 60} {
		p, err := ix.Partition(radius)
		if err != nil {
			t.Fatal(err)
		}
		for i, ss := range p.Subspaces {
			want := ix.Tree().Search(ss.AC, nil)
			if !slices.Equal(ss.ACPoints, want) || cap(ss.ACPoints) != len(ss.ACPoints) {
				t.Fatalf("radius %g subspace %d: ACPoints len %d cap %d, search has %d points or differs",
					radius, i, len(ss.ACPoints), cap(ss.ACPoints), len(want))
			}
			if i > 0 && &ss.ACPoints[0] == &p.Subspaces[i-1].ACPoints[0] {
				t.Fatalf("radius %g: subspaces %d and %d share ACPoints storage", radius, i-1, i)
			}
		}
	}
}

func TestAllPointsCoincide(t *testing.T) {
	pts := make([]geo.Point, 20)
	for i := range pts {
		pts[i] = geo.Point{X: 5, Y: 5}
	}
	ix := NewIndex(pts)
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

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randPoints(rng, 400, 50)
	ix := NewIndex(pts)
	p, err := ix.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.NumSubspaces != len(p.Subspaces) {
		t.Errorf("NumSubspaces = %d", st.NumSubspaces)
	}
	if st.TotalCorePts != 400 {
		t.Errorf("TotalCorePts = %d, want 400", st.TotalCorePts)
	}
	if st.TotalACPts < 400 {
		t.Errorf("TotalACPts = %d, must be >= core total", st.TotalACPts)
	}
	if st.MaxCoreDiag >= 8 {
		t.Errorf("MaxCoreDiag = %g, must be < radius", st.MaxCoreDiag)
	}
}

func TestPartitionCountGrowsAsRadiusShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, 1000, 100)
	ix := NewIndex(pts)
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
