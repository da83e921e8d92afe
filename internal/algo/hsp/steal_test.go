package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/sched"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// TestStealExactness drives the chunked stealing path across chunk
// sizes — including the adversarial chunk=1 (every dim-0 candidate its
// own steal unit) and chunk=-1 (whole-subspace units, the pre-stealing
// granularity) — and worker counts above the subspace count. Every
// combination must match the brute-force oracle exactly.
func TestStealExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 4; trial++ {
		ds := testutil.RandDataset(rng, 300, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 20, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		want := simsOf(brute.Search(ds, q))
		for _, cs := range []int{1, 2, 7, -1} {
			for _, workers := range []int{2, 8} {
				got, err := Search(context.Background(), ds, ix, q, Options{
					Parallelism: workers,
					Steal:       sched.Tuning{ChunkSize: cs},
				})
				if err != nil {
					t.Fatalf("chunk=%d workers=%d: %v", cs, workers, err)
				}
				if !simsEqual(simsOf(got), want, 1e-9) {
					t.Errorf("trial %d chunk %d workers %d: sims %v != brute %v",
						trial, cs, workers, simsOf(got), want)
				}
			}
		}
	}
}

// TestStealDeterministicTies: results must be tuple-identical across
// repeated runs regardless of steal order, because the concurrent
// top-k's tie-break is order-independent.
func TestStealDeterministicTies(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	// Few categories and a coarse coordinate grid manufacture score ties.
	ds := testutil.RandDataset(rng, 400, 3, 2, 10)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 8, Alpha: 0.5, Beta: 2.0, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	var want []topk.Entry
	for run := 0; run < 10; run++ {
		got, err := Search(context.Background(), ds, ix, q, Options{
			Parallelism: 4,
			Steal:       sched.Tuning{ChunkSize: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("run %d: %d results, first run had %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i].Sim != want[i].Sim {
				t.Fatalf("run %d rank %d: sim %v != %v", run, i, got[i].Sim, want[i].Sim)
			}
			for d := range got[i].Tuple {
				if got[i].Tuple[d] != want[i].Tuple[d] {
					t.Fatalf("run %d rank %d: tuple %v != %v", run, i, got[i].Tuple, want[i].Tuple)
				}
			}
		}
	}
}

// TestStealSingleSubspace: with partitioning disabled there is exactly
// one subspace, which the pre-stealing split could not parallelize at
// all. Chunked stealing must still use every worker and stay exact.
func TestStealSingleSubspace(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	ds := testutil.RandDataset(rng, 250, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	want := simsOf(brute.Search(ds, q))
	got, err := Search(context.Background(), ds, ix, q, Options{
		Parallelism:      4,
		DisablePartition: true,
		Steal:            sched.Tuning{ChunkSize: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !simsEqual(simsOf(got), want, 1e-9) {
		t.Errorf("single-subspace steal sims %v != brute %v", simsOf(got), want)
	}
}

// TestStealCancellation: cancellation must abort promptly even with
// many fine-grained chunks in flight.
func TestStealCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	ds := testutil.RandDataset(rng, 3000, 2, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 4, 60, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, ds, ix, q, Options{
		Parallelism: 4,
		Steal:       sched.Tuning{ChunkSize: 1},
	}); err == nil {
		t.Error("cancelled stealing search should abort")
	}
}
