package lora

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/testutil"
)

// TestStealValidity drives the chunked stealing path across chunk
// sizes, including chunk=1. LORA's parallel path is approximate and not
// run-deterministic (a stale shared threshold changes which cells stop
// early), so the checks are invariants rather than equality:
//
//   - every returned tuple is feasible and its reported score matches a
//     from-scratch simil evaluation bit-for-bit;
//   - scores arrive in non-increasing rank order;
//   - rank-wise, the stolen run is at least as good as the sequential
//     LORA run (minus float tolerance): parallel workers offer a
//     superset of the sequential offers, because a stale threshold only
//     stops rank-graph pops later and prunes fewer cell prefixes.
func TestStealValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 4; trial++ {
		ds := testutil.RandDataset(rng, 400, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 20, params)
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		seq, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sctx := simil.NewContext(ds, q)
		for _, cs := range []int{1, 4, -1} {
			res, err := Search(context.Background(), ds, ix, q, Options{
				Parallelism: 4,
				Steal:       sched.Tuning{ChunkSize: cs},
			})
			if err != nil {
				t.Fatalf("chunk=%d: %v", cs, err)
			}
			for rank, e := range res {
				sim, ok := sctx.SimOfPositions(e.Tuple)
				if !ok {
					t.Errorf("trial %d chunk %d rank %d: infeasible tuple %v", trial, cs, rank, e.Tuple)
					continue
				}
				if sim != e.Sim {
					t.Errorf("trial %d chunk %d rank %d: reported sim %v, recomputed %v",
						trial, cs, rank, e.Sim, sim)
				}
				if rank > 0 && e.Sim > res[rank-1].Sim {
					t.Errorf("trial %d chunk %d: rank %d sim %v above rank %d sim %v",
						trial, cs, rank, e.Sim, rank-1, res[rank-1].Sim)
				}
				if rank < len(seq) && e.Sim < seq[rank].Sim-1e-9 {
					t.Errorf("trial %d chunk %d rank %d: stolen run %v worse than sequential %v",
						trial, cs, rank, e.Sim, seq[rank].Sim)
				}
				if math.IsNaN(e.Sim) || e.Sim < 0 {
					t.Errorf("trial %d chunk %d rank %d: bad sim %v", trial, cs, rank, e.Sim)
				}
			}
		}
	}
}

// TestStealCancellation: cancellation must abort promptly with
// fine-grained chunks in flight.
func TestStealCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	ds := testutil.RandDataset(rng, 4000, 2, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 9, GridD: 8, Xi: 50}
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
