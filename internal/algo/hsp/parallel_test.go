package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// Parallel subspace search must stay exact: a stale concurrent threshold
// only admits extra candidates.
func TestParallelExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 5; trial++ {
		ds := testutil.RandDataset(rng, 300, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 20, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		want := simsOf(brute.Search(ds, q))
		for _, workers := range []int{2, 4, -1} {
			got, err := Search(context.Background(), ds, ix, q, Options{Parallelism: workers})
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !simsEqual(simsOf(got), want, 1e-9) {
				t.Errorf("trial %d workers %d: parallel sims %v != brute %v", trial, workers, simsOf(got), want)
			}
		}
	}
}

func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	ds := testutil.RandDataset(rng, 3000, 2, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 4, Xi: 10}
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

func TestParallelWithFixedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	ds := testutil.RandDataset(rng, 200, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 4, Alpha: 0.5, Beta: 2.0, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 25, params)
	cands := ds.CategoryObjects(q.Example.Categories[0])
	if len(cands) == 0 {
		t.Skip("no candidates")
	}
	q.Example.Fixed = []query.FixedPoint{{Dim: 0, Obj: cands[0]}}
	q.Variant = query.CSEQFP
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	want := simsOf(brute.Search(ds, q))
	got, err := Search(context.Background(), ds, ix, q, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !simsEqual(simsOf(got), want, 1e-9) {
		t.Errorf("parallel CSEQ-FP diverges: %v vs %v", simsOf(got), want)
	}
}
