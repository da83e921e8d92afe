package lora

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// reuseCase is one search of the reuse sequence.
type reuseCase struct {
	q   *query.Query
	opt Options
}

// reuseSequence is testutil.ReuseQueries' queries at the paper's LORA,
// then the tuple-size-4 query under RandomSample and the size-3 one
// under PruneCellNorm.
func reuseSequence() (*dataset.Dataset, *partition.Index, []reuseCase) {
	ds, qs := testutil.ReuseQueries()
	var cases []reuseCase
	for _, q := range qs {
		cases = append(cases, reuseCase{q: q})
	}
	cases = append(cases, reuseCase{q: qs[3], opt: Options{RandomSample: true, RandomSeed: 7}},
		reuseCase{q: qs[2], opt: Options{PruneCellNorm: true}})
	return ds, partition.NewIndex(ds), cases
}

func (c reuseCase) search(t *testing.T, ds *dataset.Dataset, ix *partition.Index, workers int) ([]topk.Entry, stats.Snapshot) {
	t.Helper()
	opt := c.opt
	opt.Parallelism, opt.Stats = workers, &stats.Stats{}
	res, err := Search(context.Background(), ds, ix, c.q, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, opt.Stats.Snapshot()
}

// TestReuseMatchesFreshState runs queries of tuple sizes 2, 5, 3 and 4,
// a pinned one and the ablations twice through the shared pools, at one
// worker and at two: every answer equals the answer of a sequential
// search from fresh states, searchers and similarity context, and at
// one worker so does every counter. A pooled state sized for another
// query or grid, or a searcher or context holding on to an earlier
// query, shows here. (Parallel LORA may find more than sequential LORA
// where a stale threshold admits it; on these queries it does not.)
func TestReuseMatchesFreshState(t *testing.T) {
	ds, ix, cases := reuseSequence()
	type ref struct {
		res  []topk.Entry
		work stats.Snapshot
	}
	fresh := make([]ref, len(cases))
	for i, c := range cases {
		testutil.EmptyPools()
		fresh[i].res, fresh[i].work = c.search(t, ds, ix, 1)
		if len(fresh[i].res) == 0 {
			t.Fatalf("case %d found no tuple", i)
		}
	}
	for _, workers := range []int{1, 2} {
		for round := 0; round < 2; round++ {
			for i, c := range cases {
				label := fmt.Sprintf("workers %d round %d case %d (m=%d %+v)", workers, round, i, c.q.Example.M(), c.opt)
				// Another query's context stays out of the pool through
				// the search, so the search gets another context than the
				// one its pooled searchers served last.
				other := simil.NewContext(ds, cases[(i+1)%len(cases)].q)
				res, work := c.search(t, ds, ix, workers)
				other.Release()
				if !reflect.DeepEqual(res, fresh[i].res) {
					t.Errorf("%s: answers %v; fresh state %v", label, res, fresh[i].res)
				}
				if workers == 1 && work != fresh[i].work {
					t.Errorf("%s: counters %+v; fresh state %+v", label, work, fresh[i].work)
				}
			}
		}
	}
}

// TestReleaseDropsTheQuery: a released searcher keeps its buffers and
// nothing else: no context, sink, query, index, work list, options,
// counters, span or prep view, and its list buffer holds no bucket.
func TestReleaseDropsTheQuery(t *testing.T) {
	ds, ix, cases := reuseSequence()
	if _, err := Search(context.Background(), ds, ix, cases[1].q, Options{}); err != nil {
		t.Fatal(err)
	}
	s := searchers.Get()
	if s.tuple == nil {
		t.Skip("the pool dropped the searcher")
	}
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "posBuf", "simBuf", "cellTuple", "simScratch", "listsBuf", "enum", "tuple", "asims", "dist":
		default:
			if !v.Field(i).IsZero() {
				t.Errorf("released searcher keeps %s", name)
			}
		}
	}
	for d, l := range s.listsBuf {
		if l != nil {
			t.Errorf("released searcher keeps dimension %d's bucket", d)
		}
	}
	searchers.Put(s)
}

// TestSearchAllocsSteadyState guards the pooled search's allocations:
// once the pools are warm, a one-worker search allocates only its sink,
// its results, the sink's tuple keys and the driver's run state, its
// scheduler and handoff arrays (100 allocations on this query; before
// the pools, 477). The race detector's sync.Pool drops a share of
// what is put back, so it skips there.
func TestSearchAllocsSteadyState(t *testing.T) {
	if testutil.Race {
		t.Skip("sync.Pool drops pooled values at random under the race detector")
	}
	ds, ix, q := allocQuery(t)
	got := testing.AllocsPerRun(50, func() {
		if _, err := Search(context.Background(), ds, ix, q, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > 105 {
		t.Errorf("a warm sequential search allocates %v times, want at most 105", got)
	}
}
