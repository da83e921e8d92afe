package core

import (
	"context"
	"reflect"
	"testing"

	"spatialseq/internal/obs/span"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
)

func TestCollectStats(t *testing.T) {
	eng, q := setup(t, 300)
	ctx := context.Background()

	for _, algo := range []Algorithm{DFSPrune, HSP, LORA} {
		qq := *q
		res, err := eng.Search(ctx, &qq, algo, Options{CollectStats: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		st := res.Stats
		if st.Subspaces == 0 {
			t.Errorf("%v: no subspaces counted", algo)
		}
		if st.Candidates == 0 {
			t.Errorf("%v: no candidates counted", algo)
		}
		if len(res.Tuples) > 0 && st.Offered == 0 {
			t.Errorf("%v: results returned but no offers counted", algo)
		}
		if st.Offered > st.Tuples && algo != LORA {
			// every offer stems from a scored tuple
			t.Errorf("%v: offered %d > tuples %d", algo, st.Offered, st.Tuples)
		}
		if algo == LORA {
			if st.CellTuples == 0 {
				t.Errorf("LORA: no cell tuples counted")
			}
			if st.RankPops == 0 && st.CellTuples > 0 {
				// singleton fast paths may bypass the rank graph entirely;
				// with default xi and clustered data at this size, at
				// least some multi-point cells should exist
				t.Logf("LORA: all cell tuples were singletons (rank pops 0)")
			}
		}
	}
}

func TestStatsDisabledByDefault(t *testing.T) {
	eng, q := setup(t, 100)
	res, err := eng.Search(context.Background(), q, HSP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Subspaces != 0 || res.Stats.Candidates != 0 {
		t.Errorf("stats collected without CollectStats: %+v", res.Stats)
	}
}

// TestStatsParallelConsistency: the best-first stop makes which
// subspaces get searched, and so the subspace and candidate totals,
// depend on when other workers raise the threshold. What holds by
// construction at every worker count is that each of the partition's
// subspaces is searched, skipped or bounded exactly once, and that the
// answers are the same.
func TestStatsParallelConsistency(t *testing.T) {
	eng, q := setup(t, 500)
	ctx := context.Background()
	var want []ResultTuple
	for _, workers := range []int{1, 4} {
		qq := *q
		opt := Options{CollectStats: true}
		opt.HSP.Parallelism = workers
		res, err := eng.Search(ctx, &qq, HSP, opt)
		if err != nil {
			t.Fatal(err)
		}
		part, err := eng.PartitionIndex().PartitionBucketed(simil.NewContext(eng.Dataset(), &qq).PartitionRadius())
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if got := st.Subspaces + st.SubspacesSkipped + st.SubspacesBounded; got != int64(len(part.Subspaces)) {
			t.Errorf("workers %d: %d searched + %d skipped + %d bounded subspaces, the partition has %d",
				workers, st.Subspaces, st.SubspacesSkipped, st.SubspacesBounded, len(part.Subspaces))
		}
		if workers == 1 {
			want = res.Tuples
			if st.SubspacesBounded == 0 {
				t.Errorf("no subspace bounded (%+v): the query does not exercise the stop", st)
			}
		} else if !reflect.DeepEqual(res.Tuples, want) {
			t.Errorf("workers %d: answers %v, one worker %v", workers, res.Tuples, want)
		}
	}
}

// TestSpanWorkSumsToStats: each unit of search work reports one delta,
// to its span and to the counters, so the Snapshot.Add sum of every
// span's work equals Result.Stats, all but SubspacesBounded (no unit ran
// those subspaces). It holds for every algorithm, at one worker and at
// four, on queries with one subspace and with many, where the plan
// fills the memo.
func TestSpanWorkSumsToStats(t *testing.T) {
	var filled bool
	for _, n := range []int{150, 600} {
		eng, q := setup(t, n)
		for _, algo := range []Algorithm{DFSPrune, HSP, LORA} {
			for _, workers := range []int{1, 4} {
				qq := *q
				tr := span.NewTracerLimits(1<<16, 0)
				opt := Options{CollectStats: true, Spans: tr}
				opt.HSP.Parallelism, opt.LORA.Parallelism = workers, workers
				res, err := eng.Search(context.Background(), &qq, algo, opt)
				if err != nil {
					t.Fatalf("n %d %v workers %d: %v", n, algo, workers, err)
				}
				if d := tr.Dropped(); d != 0 {
					t.Fatalf("n %d %v workers %d: the tracer dropped %d spans", n, algo, workers, d)
				}
				var sum stats.Snapshot
				for _, nd := range tr.Snapshot().Nodes {
					if nd.Work != nil {
						sum = sum.Add(*nd.Work)
					}
				}
				want := res.Stats
				want.SubspacesBounded = 0
				if sum != want {
					t.Errorf("n %d %v workers %d: span work sums to %+v, Result.Stats less subspaces_bounded is %+v",
						n, algo, workers, sum, want)
				}
				filled = filled || want.AttrSimMemoMisses > 0
			}
		}
	}
	if !filled {
		t.Error("no search filled the memo: the memo span went untested")
	}
}
