package eval

import (
	"context"
	"slices"
	"testing"

	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/core"
	"spatialseq/internal/workload"
)

// TestHSPMatchesDFSPruneAtYelpScale holds HSP, at one worker and at two,
// to DFS-Prune tuple for tuple, in positions and in similarities, on the
// Yelp-like 77,444-object corpus, where brute force is out of reach. The
// examples are drawn as Table II draws them. DFS-Prune takes about 0.2 s
// a query there, so a few queries run, outside -short.
func TestHSPMatchesDFSPruneAtYelpScale(t *testing.T) {
	if testing.Short() {
		t.Skip("Yelp-scale differential skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.QueryCount = 10
	ds, err := familyDataset(Yelp, 77444, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := workload.Generate(ds, familyWorkload(Yelp, cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ds)
	ctx := context.Background()
	var tuples int
	for i, q := range queries {
		want, err := eng.Search(ctx, q, core.DFSPrune, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tuples += len(want.Tuples)
		for _, workers := range []int{1, 2} {
			got, err := eng.Search(ctx, q, core.HSP, core.Options{HSP: hsp.Options{Parallelism: workers}})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Tuples) != len(want.Tuples) {
				t.Fatalf("query %d, %d workers: HSP found %d tuples, DFS-Prune %d", i, workers, len(got.Tuples), len(want.Tuples))
			}
			for j, w := range want.Tuples {
				// Both exact algorithms score with the same kernels, so the
				// similarities agree bit for bit.
				if g := got.Tuples[j]; g.Sim != w.Sim || !slices.Equal(g.Positions, w.Positions) {
					t.Fatalf("query %d, %d workers, rank %d: HSP %v at %v, DFS-Prune %v at %v",
						i, workers, j, g.Positions, g.Sim, w.Positions, w.Sim)
				}
			}
		}
	}
	if tuples == 0 {
		t.Error("DFS-Prune found no tuples: the differential compared nothing")
	}
}
