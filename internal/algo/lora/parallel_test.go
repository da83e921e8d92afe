package lora

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// Parallel LORA must stay valid (norm constraint, no duplicates, never
// exceeding the exact optimum); the exact result set may differ from the
// sequential run's because the heuristic early stops are order-dependent.
func TestParallelValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 4; trial++ {
		ds := testutil.RandDataset(rng, 400, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 20, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		exact := simsOf(brute.Search(ds, q))
		res, err := Search(context.Background(), ds, ix, q, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		ref := q.Example.Norm()
		for rank, e := range res {
			if rank < len(exact) && e.Sim > exact[rank]+1e-9 {
				t.Errorf("trial %d rank %d: parallel LORA %g exceeds exact %g", trial, rank, e.Sim, exact[rank])
			}
			locs := make([]geo.Point, len(e.Tuple))
			for d, pos := range e.Tuple {
				locs[d] = ds.Object(int(pos)).Loc
			}
			if n := geo.TupleNorm(locs); !geo.NormOK(n, ref, q.Params.Beta) {
				t.Errorf("trial %d: parallel result %v violates beta-norm", trial, e.Tuple)
			}
		}
	}
}

func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	ds := testutil.RandDataset(rng, 4000, 2, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 8, Xi: 50}
	q := testutil.RandQuery(rng, ds, 4, 60, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, ds, ix, q, Options{Parallelism: 4}); err == nil {
		t.Error("cancelled parallel search should abort")
	}
}
