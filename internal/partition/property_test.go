package partition

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/testutil"
)

// refCore is one core of the reference split.
type refCore struct {
	rect  geo.Rect
	pts   []int32
	level int
}

// refSplit is the split recursion the index replays, kept as the
// reference: it divides rect, alternating the split axis per level, and
// collects the non-empty leaves whose diagonal is below the radius or
// that are degenerate. positions must hold exactly the points inside
// rect and is reordered in place so each half receives a contiguous
// sub-slice.
func refSplit(ds *dataset.Dataset, positions []int32, rect geo.Rect, level int, radius float64, out *[]refCore) {
	if len(positions) == 0 {
		return
	}
	if rect.Diagonal() < radius || degenerate(rect) {
		*out = append(*out, refCore{rect, slices.Clone(positions), level})
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
	lo, hi := 0, len(positions)
	for lo < hi {
		if inLeft(ds.Loc(int(positions[lo]))) {
			lo++
		} else {
			hi--
			positions[lo], positions[hi] = positions[hi], positions[lo]
		}
	}
	refSplit(ds, positions[:lo], left, level+1, radius, out)
	refSplit(ds, positions[lo:], right, level+1, radius, out)
}

// sorted returns a sorted copy of pos.
func sorted(pos []int32) []int32 {
	out := slices.Clone(pos)
	slices.Sort(out)
	return out
}

// propertyFixture is a point set that stresses the index's float
// recursion.
type propertyFixture struct {
	name string
	pts  []geo.Point
}

// propertyFixtures returns uniform points; a dozen locations, each
// repeated; points on an integer grid, where the midpoints of [0, 64]
// fall on grid lines; and clusters of points one and two ulps apart on
// both axes, around split lines and elsewhere. At the smallest radii the
// walk reaches degenerate leaves, some holding distinct locations, more
// than 64 levels down.
func propertyFixtures(rng *rand.Rand) []propertyFixture {
	uniform := randPoints(rng, 300, 100)
	var dups []geo.Point
	sites := randPoints(rng, 12, 100)
	for i := 0; i < 240; i++ {
		dups = append(dups, sites[rng.Intn(len(sites))])
	}
	grid := []geo.Point{{X: 0, Y: 0}, {X: 64, Y: 0}, {X: 0, Y: 64}, {X: 64, Y: 64}}
	for i := 0; i < 300; i++ {
		grid = append(grid, geo.Point{X: float64(rng.Intn(65)), Y: float64(rng.Intn(65))})
	}
	ulp := []geo.Point{{X: 0, Y: 0}, {X: 64, Y: 64}}
	up := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		return v
	}
	bases := []geo.Point{{X: 32, Y: 32}, {X: 16, Y: 48}, {X: 1, Y: 1}, {X: 8, Y: 33}}
	bases = append(bases, randPoints(rng, 16, 64)...)
	for _, b := range bases {
		for dx := 0; dx < 3; dx++ {
			for dy := 0; dy < 3; dy++ {
				if rng.Intn(3) > 0 {
					ulp = append(ulp, geo.Point{X: up(b.X, dx), Y: up(b.Y, dy)})
				}
			}
		}
	}
	return []propertyFixture{{"uniform", uniform}, {"duplicates", dups}, {"grid", grid}, {"ulp-close", ulp}}
}

// propertyRadii reach the build's leaves at the small end and a single
// core at the large one.
var propertyRadii = []float64{1e-300, 1e-12, 0.7, 3, 20, 1000}

// pathOrder returns each category's positions as the index orders them
// (the whole-bounds gather, one run each), dataset.NoCategory's too,
// after checking each is a permutation of the category.
func pathOrder(t *testing.T, ds *dataset.Dataset, ix *Index) map[dataset.CategoryID][]int32 {
	t.Helper()
	out := map[dataset.CategoryID][]int32{}
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	for c := dataset.NoCategory; int(c) < ds.NumCategories(); c++ {
		out[c] = ix.Gather(nil, c, ds.Bounds())
		want := all
		if c != dataset.NoCategory {
			want = ds.CategoryObjects(c)
		}
		if got := sorted(out[c]); !slices.Equal(got, want) {
			t.Fatalf("category %d: the index holds %v, the dataset %v", c, got, want)
		}
	}
	return out
}

// TestWalkMatchesSplit holds the partition walk to the reference split
// recursion: the same cores in the same order, rectangle for rectangle,
// with the same ac rectangles and point sets. Each core's points are a
// run of the path order.
func TestWalkMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var deepest, mixedLeaves, dupLeaves int
	for _, f := range propertyFixtures(rng) {
		ds := pointsDataset(t, f.pts, 3)
		ix := NewIndex(ds)
		order := pathOrder(t, ds, ix)
		for _, radius := range propertyRadii {
			label := fmt.Sprintf("%s radius %g", f.name, radius)
			p, err := ix.Partition(radius)
			if err != nil {
				t.Fatal(err)
			}
			positions := make([]int32, ds.Len())
			for i := range positions {
				positions[i] = int32(i)
			}
			var ref []refCore
			refSplit(ds, positions, ds.Bounds(), 0, radius, &ref)
			if len(p.Subspaces) != len(ref) {
				t.Fatalf("%s: %d cores, reference %d", label, len(p.Subspaces), len(ref))
			}
			for i, ss := range p.Subspaces {
				r := ref[i]
				if ss.Core != r.rect || ss.AC != r.rect.Inflate(radius).Intersect(ds.Bounds()) {
					t.Fatalf("%s core %d: %v ac %v, reference %v", label, i, ss.Core, ss.AC, r.rect)
				}
				got, want := sorted(ss.CorePoints), sorted(r.pts)
				if !slices.Equal(got, want) {
					t.Fatalf("%s core %d: points %v, reference %v", label, i, got, want)
				}
				if run := testutil.InRegion(ds, order[dataset.NoCategory], dataset.NoCategory, ss.Core); !slices.Equal(ss.CorePoints, run) {
					t.Fatalf("%s core %d: points %v are not the path order's run %v", label, i, ss.CorePoints, run)
				}
				deepest = max(deepest, r.level)
				if len(r.pts) > 1 && degenerate(r.rect) && r.rect.Diagonal() >= radius {
					dupLeaves++
					first := ds.Loc(int(r.pts[0]))
					if slices.ContainsFunc(r.pts, func(pos int32) bool { return ds.Loc(int(pos)) != first }) {
						mixedLeaves++
					}
				}
			}
		}
	}
	t.Logf("deepest core at level %d; %d degenerate leaves with several points, %d of them at distinct locations",
		deepest, dupLeaves, mixedLeaves)
	if deepest <= 64 || dupLeaves == 0 || mixedLeaves == 0 {
		t.Errorf("deepest core at level %d, %d degenerate leaves with several points, %d at distinct locations: "+
			"the fixtures must pass 64 levels and reach both kinds of leaf", deepest, dupLeaves, mixedLeaves)
	}
}

// TestGatherMatchesScan holds Gather to a brute scan of the path order,
// for every category and for all of them: over every core and ac
// rectangle at every radius, and over rectangles whose edges lie on data
// points, including ulp-close ones, and reach past the bounds.
func TestGatherMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	var onEdge int
	for _, f := range propertyFixtures(rng) {
		ds := pointsDataset(t, f.pts, 3)
		ix := NewIndex(ds)
		order := pathOrder(t, ds, ix)
		var regions []geo.Rect
		for _, radius := range propertyRadii {
			p, err := ix.Partition(radius)
			if err != nil {
				t.Fatal(err)
			}
			for _, ss := range p.Subspaces {
				regions = append(regions, ss.Core, ss.AC)
			}
		}
		for i := 0; i < 200; i++ {
			a, b := f.pts[rng.Intn(len(f.pts))], f.pts[rng.Intn(len(f.pts))]
			r := geo.EmptyRect().ExtendPoint(a).ExtendPoint(b)
			if i%4 == 0 {
				r = r.Inflate(rng.Float64() * 200)
			}
			regions = append(regions, r)
		}
		for _, region := range regions {
			for c := dataset.NoCategory; int(c) < ds.NumCategories(); c++ {
				got := ix.Gather(nil, c, region)
				if want := testutil.InRegion(ds, order[c], c, region); !slices.Equal(got, want) {
					t.Fatalf("%s category %d region %v: gathered %v, scan %v", f.name, c, region, got, want)
				}
				for _, pos := range got {
					if p := ds.Loc(int(pos)); p.X == region.MinX || p.X == region.MaxX || p.Y == region.MinY || p.Y == region.MaxY {
						onEdge++
					}
				}
			}
		}
	}
	if onEdge == 0 {
		t.Error("no gathered point lay on its region's edge: the fixtures must put points there")
	}
}

// TestNearestMatchesBrute holds Nearest to a brute ranking by distance
// and then position, ties included, with and without a category: from
// data points, from points between them (half-integer points tie four
// grid points) and from points outside the bounds, for k from -1 to past
// the category's size. The same points indexed by NewPointIndex take the
// same path order and give the same answers without a category, and none
// with one.
func TestNearestMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, f := range propertyFixtures(rng) {
		ds := pointsDataset(t, f.pts, 3)
		ix, pix := NewIndex(ds), NewPointIndex(f.pts)
		if got, want := pix.Gather(nil, dataset.NoCategory, ds.Bounds()), ix.Gather(nil, dataset.NoCategory, ds.Bounds()); !slices.Equal(got, want) {
			t.Fatalf("%s: the point index's path order %v, the dataset index's %v", f.name, got, want)
		}
		queries := randPoints(rng, 20, 140)
		for i := 0; i < len(f.pts); i += 11 {
			queries = append(queries, f.pts[i])
		}
		for x := -0.5; x < 70; x += 7 {
			for y := -0.5; y < 70; y += 9 {
				queries = append(queries, geo.Point{X: x, Y: y})
			}
		}
		for _, q := range queries {
			for c := dataset.NoCategory; int(c) < ds.NumCategories(); c++ {
				var all []Neighbor
				for pos := 0; pos < ds.Len(); pos++ {
					if c == dataset.NoCategory || ds.Category(pos) == c {
						all = append(all, Neighbor{Pos: int32(pos), Dist: ds.Loc(pos).Dist(q)})
					}
				}
				slices.SortFunc(all, func(a, b Neighbor) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
				})
				for _, k := range []int{-1, 0, 1, 2, 5, 17, len(all) + 3} {
					want := all[:max(0, min(k, len(all)))]
					if got := ix.Nearest(q, k, c); !slices.Equal(got, want) {
						t.Fatalf("%s from %v category %d k %d: %v, brute %v", f.name, q, c, k, got, want)
					}
					got := pix.Nearest(q, k, c)
					if c != dataset.NoCategory {
						want = nil
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s point index from %v category %d k %d: %v, brute %v", f.name, q, c, k, got, want)
					}
				}
			}
		}
	}
}
