package lora

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// simsOf is the shared helper from internal/testutil.
var simsOf = testutil.Sims

// TestTheorem3Bound verifies the paper's accuracy guarantee: with sampling
// disabled, each of LORA's top-k similarities is within the
// (1+gamma, alpha*gamma) envelope of the exact top-k, where
// gamma = 2*beta*d*sqrt(m^2-m)/||V_t*|| and d is the largest cell side
// used. We compute d conservatively from the largest possible ac-subspace
// (core diagonal < beta*||V||, inflated by beta*||V|| per side).
func TestTheorem3Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		ds := testutil.RandDataset(rng, 150, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 5, Xi: -1} // Xi<0: no sampling
		q := testutil.RandQuery(rng, ds, 3, 25, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		q.Params.Xi = -1 // Normalize() maps 0 to the default; keep disabled
		exact := simsOf(brute.Search(ds, q))
		approx, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := simsOf(approx)
		if len(got) == 0 && len(exact) == 0 {
			continue
		}
		norm := q.Example.Norm()
		if norm == 0 {
			continue
		}
		beta := q.Params.Beta
		m := float64(q.Example.M())
		// Largest cell side: ac side <= core side + 2*beta*norm and core
		// side <= core diagonal < beta*norm, so ac side < 3*beta*norm.
		d := 3 * beta * norm / float64(q.Params.GridD)
		gamma := 2 * beta * d * math.Sqrt(m*m-m) / norm
		for i := range exact {
			if i >= len(got) {
				t.Errorf("trial %d: LORA returned %d results, exact has %d", trial, len(got), len(exact))
				break
			}
			bound := (1+gamma)*got[i] + q.Params.Alpha*gamma
			if exact[i] > bound+1e-9 {
				t.Errorf("trial %d rank %d: exact %.6f > (1+%.3f)*%.6f + alpha*gamma = %.6f",
					trial, i, exact[i], gamma, got[i], bound)
			}
			if got[i] > exact[i]+1e-9 {
				t.Errorf("trial %d rank %d: approximate similarity %.6f exceeds exact optimum %.6f",
					trial, i, got[i], exact[i])
			}
		}
	}
}

// TestAccuracyImprovesWithD reproduces the Fig. 9(a) trend: finer grids
// bring LORA's result similarities closer to the exact optimum.
func TestAccuracyImprovesWithD(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var coarseErr, fineErr float64
	trials := 12
	for trial := 0; trial < trials; trial++ {
		ds := testutil.RandDataset(rng, 200, 3, 4, 100)
		ix := partition.NewIndex(ds)
		base := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 1, Xi: 5}
		q := testutil.RandQuery(rng, ds, 3, 25, base)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		exact := simsOf(brute.Search(ds, q))
		if len(exact) == 0 {
			continue
		}
		run := func(D, xi int) float64 {
			qq := *q
			qq.Params.GridD = D
			qq.Params.Xi = xi
			res, err := Search(context.Background(), ds, ix, &qq, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := simsOf(res)
			var sum float64
			for i := range exact {
				g := 0.0
				if i < len(got) {
					g = got[i]
				}
				sum += math.Abs(exact[i] - g)
			}
			return sum / float64(len(exact))
		}
		coarseErr += run(1, 2)
		fineErr += run(10, -1)
	}
	if fineErr > coarseErr+1e-9 {
		t.Errorf("finer grid should not be less accurate: coarse MAE sum %.6f, fine %.6f", coarseErr, fineErr)
	}
}

// TestQueryDependentBeatsRandomSampling reproduces the Fig. 4 motivation:
// with a tight sampling budget, query-dependent sampling must recover
// results at least as similar as seeded random sampling, on average.
func TestQueryDependentBeatsRandomSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var qd, rnd float64
	for trial := 0; trial < 15; trial++ {
		ds := testutil.RandDataset(rng, 300, 2, 4, 60)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.2, Beta: 3, GridD: 2, Xi: 1}
		q := testutil.RandQuery(rng, ds, 2, 15, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		sum := func(entries []topk.Entry) float64 {
			var s float64
			for _, e := range entries {
				s += e.Sim
			}
			return s
		}
		a, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Search(context.Background(), ds, ix, q, Options{RandomSample: true, RandomSeed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		qd += sum(a)
		rnd += sum(b)
	}
	if qd < rnd-1e-9 {
		t.Errorf("query-dependent sampling total similarity %.6f < random sampling %.6f", qd, rnd)
	}
}

func TestResultsSatisfyNormConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 8, Alpha: 0.5, Beta: 1.3, GridD: 5, Xi: 10}
	for trial := 0; trial < 6; trial++ {
		q := testutil.RandQuery(rng, ds, 3, 20, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := q.Example.Norm()
		for _, e := range res {
			locs := make([]geo.Point, len(e.Tuple))
			for d, pos := range e.Tuple {
				locs[d] = ds.Object(int(pos)).Loc
			}
			if n := geo.TupleNorm(locs); !geo.NormOK(n, ref, q.Params.Beta) {
				t.Errorf("result %v violates beta-norm", e.Tuple)
			}
			for i := 0; i < len(e.Tuple); i++ {
				for j := i + 1; j < len(e.Tuple); j++ {
					if e.Tuple[i] == e.Tuple[j] {
						t.Errorf("result %v repeats an object", e.Tuple)
					}
				}
			}
		}
	}
}

func TestCellNormFilterPreservesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 8; trial++ {
		ds := testutil.RandDataset(rng, 250, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 25, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		plain, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := Search(context.Background(), ds, ix, q, Options{PruneCellNorm: true})
		if err != nil {
			t.Fatal(err)
		}
		// The norm filter only removes beta-infeasible cell tuples, so
		// results must be identical.
		ga, gb := simsOf(plain), simsOf(filtered)
		if len(ga) != len(gb) {
			t.Fatalf("trial %d: filter changed result count: %d vs %d", trial, len(ga), len(gb))
		}
		for i := range ga {
			if math.Abs(ga[i]-gb[i]) > 1e-12 {
				t.Errorf("trial %d rank %d: %g vs %g", trial, i, ga[i], gb[i])
			}
		}
	}
}

func TestFixedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 6; trial++ {
		ds := testutil.RandDataset(rng, 200, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 4, Alpha: 0.5, Beta: 2.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 25, params)
		cands := ds.CategoryObjects(q.Example.Categories[1])
		if len(cands) == 0 {
			continue
		}
		q.Example.Fixed = []query.FixedPoint{{Dim: 1, Obj: cands[rng.Intn(len(cands))]}}
		q.Variant = query.CSEQFP
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		res, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range res {
			if e.Tuple[1] != q.Example.Fixed[0].Obj {
				t.Errorf("result %v ignores the pinned object", e.Tuple)
			}
		}
	}
}

func TestSEQVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ds := testutil.RandDataset(rng, 150, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 6, Xi: -1}
	q := testutil.RandQuery(rng, ds, 3, 25, params)
	q.Variant = query.SEQ
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	q.Params.Xi = -1
	exact := simsOf(brute.Search(ds, q))
	res, err := Search(context.Background(), ds, ix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := simsOf(res)
	if len(got) != len(exact) {
		t.Fatalf("SEQ: got %d results, exact %d", len(got), len(exact))
	}
	for i := range got {
		if got[i] > exact[i]+1e-9 {
			t.Errorf("rank %d: approximate %g exceeds exact %g", i, got[i], exact[i])
		}
	}
}

func TestCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	ds := testutil.RandDataset(rng, 5000, 2, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 10, Xi: 50}
	q := testutil.RandQuery(rng, ds, 4, 80, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, ds, ix, q, Options{}); err == nil {
		t.Error("cancelled context should abort the search")
	}
}
