package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// The memo must be invisible in the results (bit-identical AttrSim values)
// and visible in the counters: every multi-subspace search fills it
// eagerly, at any worker count, so the misses are the eager fill (the
// example categories' populations summed) and every similarity a prep
// reads is a hit.
func TestMemoCountersAndExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	want := simsOf(brute.Search(ds, q))

	for _, workers := range []int{1, 4} {
		st := &stats.Stats{}
		got, err := Search(context.Background(), ds, ix, q, Options{Parallelism: workers, Stats: st})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !simsEqual(simsOf(got), want, 1e-9) {
			t.Errorf("workers=%d: memoized sims %v != brute %v", workers, simsOf(got), want)
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

// End-to-end allocation profile of a full HSP search with reused scratch.
func BenchmarkSearchAllocs(b *testing.B) {
	rng := rand.New(rand.NewSource(125))
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
