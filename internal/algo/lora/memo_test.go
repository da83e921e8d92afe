package lora

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// LORA's sampling buckets look up every candidate's attribute similarity
// once per overlapping subspace — the memo's bread and butter. Every
// multi-subspace search fills it eagerly, at any worker count: the
// misses are the eager fill (the example categories' populations summed)
// and every similarity a prep reads is a hit, without changing which
// tuples are found.
func TestMemoCountersAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(126))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	base, err := Search(context.Background(), ds, ix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		st := &stats.Stats{}
		got, err := Search(context.Background(), ds, ix, q, Options{Parallelism: workers, Stats: st})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			// sequential LORA is deterministic: the memo must not change it
			if len(got) != len(base) {
				t.Fatalf("sequential result count changed: %d vs %d", len(got), len(base))
			}
			for i := range got {
				if got[i].Sim != base[i].Sim {
					t.Errorf("sequential sim %d changed: %v vs %v", i, got[i].Sim, base[i].Sim)
				}
			}
		}
		snap := st.Snapshot()
		if snap.Subspaces+snap.SubspacesSkipped <= 1 {
			t.Skip("single-subspace query: memo disabled by design")
		}
		if snap.AttrSimMemoMisses != testutil.EagerMemoFill(ds, q) {
			t.Errorf("workers=%d: %d memo misses, the eager fill computes %d", workers, snap.AttrSimMemoMisses, testutil.EagerMemoFill(ds, q))
		}
		if snap.AttrSimMemoHits < snap.Candidates || snap.Candidates == 0 {
			t.Errorf("workers=%d: %d memo hits for %d candidates", workers, snap.AttrSimMemoHits, snap.Candidates)
		}
	}
}

// End-to-end allocation profile of a full LORA search with reused scratch.
func BenchmarkSearchAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(127))
	ds := testutil.RandDataset(rng, 1000, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(context.Background(), ds, ix, q, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
