package simil

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

func maskedCtx(t *testing.T, rng *rand.Rand, skip [][2]int, metric query.Metric) (*Context, *query.Query) {
	t.Helper()
	ds := testutil.RandDataset(rng, 80, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 2, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	q.Example.SkipPairs = skip
	q.Example.Metric = metric
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	return NewContext(ds, q), q
}

func TestContextWithSkipPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	c, q := maskedCtx(t, rng, [][2]int{{0, 2}}, nil)
	if c.Pairs != 2 {
		t.Errorf("Pairs = %d, want 2 active", c.Pairs)
	}
	if c.GraphDiam != 2 {
		t.Errorf("GraphDiam = %d, want 2", c.GraphDiam)
	}
	if len(c.X) != 2 || len(c.Active) != 3 {
		t.Errorf("X len %d, Active len %d", len(c.X), len(c.Active))
	}
	// partition radius widened by the graph diameter
	want := 2 * c.Beta * c.Norm
	if math.Abs(c.PartitionRadius()-want) > 1e-9 {
		t.Errorf("PartitionRadius = %g, want %g", c.PartitionRadius(), want)
	}
	_ = q
}

func TestScratchHonorsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	c, _ := maskedCtx(t, rng, [][2]int{{0, 1}}, nil)
	s := c.NewScratch()
	s.Push(geo.Point{X: 0, Y: 0}, 1)
	n2 := s.Push(geo.Point{X: 3, Y: 4}, 1) // pair (0,1) masked
	if n2 != 0 || len(s.Y) != 0 {
		t.Fatalf("masked pair added %d distances: %v", n2, s.Y)
	}
	n3 := s.Push(geo.Point{X: 6, Y: 8}, 1) // pairs (0,2) and (1,2) active
	if n3 != 2 || len(s.Y) != 2 {
		t.Fatalf("third push added %d distances: %v", n3, s.Y)
	}
	if got := s.PrefixNorm(); math.Abs(got-geo.Norm(s.Y)) > 1e-12 {
		t.Errorf("PrefixNorm = %g", got)
	}
}

func TestDistVectorOfMaskedMatchesExample(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	c, q := maskedCtx(t, rng, [][2]int{{1, 2}}, nil)
	got := c.DistVectorOf(q.Example.Locations, nil)
	want := q.Example.DistVector()
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
}

type scaledMetric struct{ f float64 }

func (m scaledMetric) Dist(a, b geo.Point) float64 { return m.f * a.Dist(b) }
func (m scaledMetric) DominatesEuclidean() bool    { return m.f >= 1 }

func TestContextWithMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	c, q := maskedCtx(t, rng, nil, scaledMetric{f: 3})
	if c.Dist(geo.Point{X: 0, Y: 0}, geo.Point{X: 1, Y: 0}) != 3 {
		t.Error("Context.Dist must use the metric")
	}
	// the example norm is measured under the metric
	if math.Abs(c.Norm-q.Example.Norm()) > 1e-9 {
		t.Errorf("Norm = %g, example = %g", c.Norm, q.Example.Norm())
	}
	// scratch distances use the metric
	s := c.NewScratch()
	s.Push(geo.Point{X: 0, Y: 0}, 1)
	s.Push(geo.Point{X: 1, Y: 0}, 1)
	if s.Y[0] != 3 {
		t.Errorf("scratch distance = %g, want 3", s.Y[0])
	}
	// a dominating metric keeps a finite partition radius
	if math.IsInf(c.PartitionRadius(), 1) {
		t.Error("dominating metric should keep a finite radius")
	}
}

func TestNonDominatingMetricRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	c, _ := maskedCtx(t, rng, nil, scaledMetric{f: 0.5})
	if !math.IsInf(c.PartitionRadius(), 1) {
		t.Error("non-dominating metric must force the whole-space radius")
	}
}

func TestSimOfPositionsWithMask(t *testing.T) {
	rng := rand.New(rand.NewSource(176))
	c, q := maskedCtx(t, rng, [][2]int{{0, 1}}, nil)
	// Scan the category objects for the first distinct tuple that beta
	// admits, and verify SimOfPositions agrees with a manual masked
	// computation on it.
	tuple, locs := make([]int32, 3), make([]geo.Point, 3)
	var scan func(d int) bool
	scan = func(d int) bool {
		if d == len(tuple) {
			return c.NormOK(geo.Norm(c.DistVectorOf(locs, nil)))
		}
		for _, pos := range c.DS.CategoryObjects(q.Example.Categories[d]) {
			if slices.Contains(tuple[:d], pos) {
				continue
			}
			tuple[d], locs[d] = pos, c.DS.Loc(int(pos))
			if scan(d + 1) {
				return true
			}
		}
		return false
	}
	if !scan(0) {
		t.Fatal("no distinct tuple of the example's categories is feasible under beta")
	}
	sim, ok := c.SimOfPositions(tuple)
	if !ok {
		t.Fatalf("SimOfPositions rejects %v, which beta admits", tuple)
	}
	attrs := make([]float64, 3)
	for d, pos := range tuple {
		attrs[d] = c.AttrSim(d, pos)
	}
	y := c.DistVectorOf(locs, nil)
	want := c.TupleSim(y, attrs)
	if math.Abs(sim-want) > 1e-12 {
		t.Errorf("SimOfPositions = %g, manual = %g", sim, want)
	}
}
