package lora

import (
	"context"
	"reflect"
	"testing"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// searchIndexOrder is Search without the best-first order and stop: it
// visits every subspace in index order over the same eager memo (a plan
// that is not Ordered). It
// also reports how many subspaces that is, and whether Search's plan
// visits them in another order.
func searchIndexOrder(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) ([]topk.Entry, int64, bool) {
	t.Helper()
	sctx := simil.NewContext(ds, q)
	ix := partition.NewIndex(ds)
	work, _, err := sctx.Plan(ix, simil.PlanSpec{Radius: sctx.PartitionRadius()})
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := plan(simil.NewContext(ds, q), ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	reordered := false
	for i := 0; i < len(planned) && i < len(work); i++ {
		reordered = reordered || planned[i].Core != work[i].Core
	}
	sink := topk.NewConcurrent(q.Params.K)
	_, err = sched.Run(new(sched.Pool[prepState]), len(work), sched.Bounds{}, opt.Parallelism, 1, opt.Steal, func() sched.Worker[prepState] {
		return newSearcher(context.Background(), sctx, sink, q, ix, work, opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sink.Results(), int64(len(work)), reordered
}

// TestOrderInvariance holds the best-first search to the index-order
// visit: every cut LORA makes is a bound on the sampled space and its
// k-valid-pops rule is per cell tuple, so neither the order of the
// subspaces nor the stop at the first bound the results reject may
// change an answer. It runs the enumeration and tie-grid queries under
// the paper's LORA, RandomSample and PruneCellNorm, at one worker and
// at two, and every subspace must be searched, skipped or bounded. The
// cases must both reorder subspaces and cut some.
func TestOrderInvariance(t *testing.T) {
	var reordered, bounded int64
	for _, c := range append(testutil.EnumerationQueries(), testutil.TieGridQueries()...) {
		for _, opt := range []Options{{}, {RandomSample: true, RandomSeed: 7}, {PruneCellNorm: true}} {
			for _, par := range []int{1, 2} {
				opt.Parallelism, opt.Stats = par, nil
				want, visited, moved := searchIndexOrder(t, c.DS, c.Q, opt)
				if moved {
					reordered++
				}
				opt.Stats = &stats.Stats{}
				got, err := Search(context.Background(), c.DS, partition.NewIndex(c.DS), c.Q, opt)
				if err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				work := opt.Stats.Snapshot()
				bounded += work.SubspacesBounded
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %+v: best-first %v, index order %v", c.Name, opt, got, want)
				}
				if n := work.Subspaces + work.SubspacesSkipped + work.SubspacesBounded; n != visited {
					t.Errorf("%s %+v: %d subspaces searched, skipped or bounded, of %d", c.Name, opt, n, visited)
				}
			}
		}
	}
	t.Logf("%d runs reordered, %d subspaces bounded", reordered, bounded)
	if reordered == 0 || bounded == 0 {
		t.Errorf("%d runs reordered subspaces and %d subspaces were bounded: both must happen", reordered, bounded)
	}
}
