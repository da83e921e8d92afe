package simil

import (
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
	"spatialseq/internal/vectormath"
)

func newCtx(t *testing.T, rng *rand.Rand, m int, beta float64) (*Context, *query.Query) {
	t.Helper()
	ds := testutil.RandDataset(rng, 120, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: beta, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, m, 30, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	return NewContext(ds, q), q
}

func TestContextPrecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c, q := newCtx(t, rng, 3, 1.5)
	if c.M != 3 || c.Pairs != 3 {
		t.Errorf("M/Pairs = %d/%d", c.M, c.Pairs)
	}
	if math.Abs(c.Norm-q.Example.Norm()) > 1e-12 {
		t.Errorf("Norm = %g, want %g", c.Norm, q.Example.Norm())
	}
	// XNormed has unit norm
	if n := geo.Norm(c.XNormed); math.Abs(n-1) > 1e-9 {
		t.Errorf("||XNormed|| = %g", n)
	}
	// SuffixSq is a proper suffix sum ending at 0
	if c.SuffixSq[c.Pairs] != 0 {
		t.Error("SuffixSq must end at 0")
	}
	if math.Abs(c.SuffixSq[0]-1) > 1e-9 {
		t.Errorf("SuffixSq[0] = %g, want 1", c.SuffixSq[0])
	}
}

func TestScratchPushPop(t *testing.T) {
	s := NewScratch(3)
	n1 := s.Push(geo.Point{X: 0, Y: 0}, 0.9)
	if n1 != 0 {
		t.Errorf("first push added %d distances", n1)
	}
	n2 := s.Push(geo.Point{X: 3, Y: 4}, 0.8)
	if n2 != 1 || math.Abs(s.Y[0]-5) > 1e-12 {
		t.Errorf("second push: n=%d Y=%v", n2, s.Y)
	}
	n3 := s.Push(geo.Point{X: 0, Y: 8}, 0.7)
	if n3 != 2 || len(s.Y) != 3 {
		t.Errorf("third push: n=%d Y=%v", n3, s.Y)
	}
	if math.Abs(s.AttrSum()-2.4) > 1e-12 {
		t.Errorf("AttrSum = %g", s.AttrSum())
	}
	s.Pop(n3)
	if len(s.Y) != 1 || len(s.Locs) != 2 {
		t.Errorf("after pop: Y=%v Locs=%v", s.Y, s.Locs)
	}
	s.Reset()
	if len(s.Y) != 0 || len(s.Locs) != 0 || len(s.AttrSims) != 0 {
		t.Error("Reset must clear everything")
	}
}

// The heart of the pruning algorithms: Eq. 5 must upper-bound the true
// cosine for ANY completion of a prefix, and Eq. 9 must do the same for
// completions satisfying the beta-norm constraint.
func TestSpatialBoundsAreTrueUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		m := 3 + rng.Intn(3)
		c, q := newCtx(t, rng, m, 1.0+rng.Float64()*3)
		pairs := c.Pairs
		for completionTrial := 0; completionTrial < 50; completionTrial++ {
			// random full tuple locations near the example
			locs := make([]geo.Point, m)
			for i := range locs {
				base := q.Example.Locations[i]
				locs[i] = geo.Point{
					X: base.X + rng.NormFloat64()*c.Norm/2,
					Y: base.Y + rng.NormFloat64()*c.Norm/2,
				}
			}
			y := geo.DistVector(locs, nil)
			cosFull := vectormath.Cos(c.X, y)
			norm := geo.Norm(y)
			for i := 1; i < m; i++ {
				u := geo.PairCount(i)
				prefix := y[:u]
				b5 := c.SpatialBoundEq5(prefix)
				if cosFull > b5+1e-9 {
					t.Fatalf("Eq5 violated: cos %.9f > bound %.9f (u=%d of %d)", cosFull, b5, u, pairs)
				}
				if c.NormOK(norm) {
					b9 := c.SpatialBoundEq9(prefix)
					if cosFull > b9+1e-9 {
						t.Fatalf("Eq9 violated for feasible tuple: cos %.9f > bound %.9f (u=%d)", cosFull, b9, u)
					}
					bb := c.SpatialBound(prefix)
					if cosFull > bb+1e-9 {
						t.Fatalf("combined bound violated: cos %.9f > %.9f", cosFull, bb)
					}
				}
			}
		}
	}
}

func TestEq9InfeasiblePrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c, _ := newCtx(t, rng, 3, 1.2)
	// a prefix distance far beyond beta*||V_t*|| can never be completed
	huge := []float64{c.Beta*c.Norm*10 + 1}
	if b := c.SpatialBoundEq9(huge); !math.IsInf(b, -1) {
		t.Errorf("infeasible prefix should bound to -Inf, got %g", b)
	}
	if b := c.SpatialBound(huge); !math.IsInf(b, -1) {
		t.Errorf("combined bound should propagate -Inf, got %g", b)
	}
}

func TestEq9VacuousForSEQ(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ds := testutil.RandDataset(rng, 50, 2, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	q.Variant = query.SEQ
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	c := NewContext(ds, q)
	if b := c.SpatialBoundEq9([]float64{1e9}); b != 1 {
		t.Errorf("Eq9 with beta=Inf should be vacuous (1), got %g", b)
	}
}

func TestAttrBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	c, _ := newCtx(t, rng, 3, 1.5)
	// loose: remaining dims count 1
	if got := c.AttrBoundLoose(1.2, 2); math.Abs(got-(1.2+1)/3) > 1e-12 {
		t.Errorf("AttrBoundLoose = %g", got)
	}
	// refined with rbar suffix
	rbarSuffix := []float64{2.4, 1.5, 0.7, 0}
	if got := c.AttrBoundRefined(1.2, 2, rbarSuffix); math.Abs(got-(1.2+0.7)/3) > 1e-12 {
		t.Errorf("AttrBoundRefined = %g", got)
	}
	// refined <= loose whenever rbar <= 1
	if c.AttrBoundRefined(1.2, 2, rbarSuffix) > c.AttrBoundLoose(1.2, 2) {
		t.Error("refined bound should not exceed loose bound")
	}
}

func TestSimOfPositionsChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	c, q := newCtx(t, rng, 3, 1.5)
	cat0 := q.Example.Categories[0]
	objs := c.DS.CategoryObjects(cat0)
	if len(objs) == 0 {
		t.Skip("no objects in category")
	}
	// duplicate positions rejected
	if _, ok := c.SimOfPositions([]int32{objs[0], objs[0], objs[0]}); ok {
		t.Error("duplicate positions must be rejected")
	}
}

func TestCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c, _ := newCtx(t, rng, 3, 1.5)
	if got := c.Combine(1, 0); math.Abs(got-c.Alpha) > 1e-12 {
		t.Errorf("Combine(1,0) = %g, want alpha", got)
	}
	if got := c.Combine(0, 1); math.Abs(got-(1-c.Alpha)) > 1e-12 {
		t.Errorf("Combine(0,1) = %g, want 1-alpha", got)
	}
}

func TestCandidatesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	c, q := newCtx(t, rng, 3, 1.5)
	all := make([]int32, c.DS.Len())
	for i := range all {
		all[i] = int32(i)
	}
	var bs BatchScratch
	for d := 0; d < c.M; d++ {
		cands := c.CandidatesBatchInto(nil, d, all, &bs)
		for i := 1; i < len(cands); i++ {
			if cands[i].Sim > cands[i-1].Sim {
				t.Fatalf("dim %d: candidates not sorted desc at %d", d, i)
			}
		}
		for _, cd := range cands {
			if c.DS.Object(int(cd.Pos)).Category != q.Example.Categories[d] {
				t.Fatalf("dim %d: candidate %d has wrong category", d, cd.Pos)
			}
			if math.Abs(cd.Sim-c.AttrSim(d, cd.Pos)) > 1e-12 {
				t.Fatalf("dim %d: candidate sim stale", d)
			}
		}
	}
}

func TestTupleSimMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	c, _ := newCtx(t, rng, 3, 5)
	for trial := 0; trial < 50; trial++ {
		tuple := make([]int32, c.M)
		locs := make([]geo.Point, c.M)
		attrs := make([]float64, c.M)
		retry := false
		for d := range tuple {
			objs := c.DS.CategoryObjects(c.Ex.Categories[d])
			if len(objs) == 0 {
				retry = true
				break
			}
			tuple[d] = objs[rng.Intn(len(objs))]
			locs[d] = c.DS.Object(int(tuple[d])).Loc
			attrs[d] = c.AttrSim(d, tuple[d])
		}
		if retry {
			continue
		}
		y := geo.DistVector(locs, nil)
		got := c.TupleSim(y, attrs)
		// definition: alpha*cos(X,y) + (1-alpha)*mean(attrs)
		var mean float64
		for _, a := range attrs {
			mean += a
		}
		mean /= float64(len(attrs))
		want := c.Alpha*vectormath.Cos(c.X, y) + (1-c.Alpha)*mean
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("TupleSim = %g, want %g", got, want)
		}
	}
}

// A degenerate example (all locations coincident, ||V_t*|| = 0) must keep
// Eq. 5 a true upper bound: a tuple of coincident objects scores
// SIMs = Cos(0, 0) = 1, so the bound has to be 1 (vacuous), not the 0 the
// raw formula yields. Regression test for the pruning bug where HSP could
// discard such tuples once the heap was full.
func TestSpatialBoundsDegenerateExample(t *testing.T) {
	b := &dataset.Builder{}
	ca := b.Category("a")
	cb := b.Category("b")
	b.Add(dataset.Object{ID: 1, Loc: geo.Point{X: 3, Y: 3}, Category: ca, Attr: []float64{1}})
	b.Add(dataset.Object{ID: 2, Loc: geo.Point{X: 3, Y: 3}, Category: cb, Attr: []float64{1}})
	b.Add(dataset.Object{ID: 3, Loc: geo.Point{X: 9, Y: 9}, Category: cb, Attr: []float64{1}})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		Variant: query.CSEQ,
		Params:  query.Params{K: 2, Alpha: 0.5, Beta: 1.5, GridD: 3, Xi: 5},
		Example: query.Example{
			Categories: []dataset.CategoryID{ca, cb},
			Locations:  []geo.Point{{X: 5, Y: 5}, {X: 5, Y: 5}}, // coincident: norm 0
			Attrs:      [][]float64{{1}, {1}},
		},
	}
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	c := NewContext(ds, q)
	if c.Norm != 0 {
		t.Fatalf("example norm = %g, want 0", c.Norm)
	}
	for _, prefix := range [][]float64{nil, {0}} {
		if got := c.SpatialBoundEq5(prefix); got != 1 {
			t.Errorf("Eq5(%v) = %g, want vacuous 1", prefix, got)
		}
	}
	// The coincident pair (obj 1, obj 2) is the only beta-feasible tuple
	// (ref norm 0 and finite beta force candidate norm 0) and scores 1.
	sim, ok := c.SimOfPositions([]int32{0, 1})
	if !ok || sim != 1 {
		t.Fatalf("coincident tuple: sim=%g ok=%v, want 1 true", sim, ok)
	}
	if _, ok := c.SimOfPositions([]int32{0, 2}); ok {
		t.Error("non-coincident tuple must fail the beta-norm constraint")
	}
}
