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

// cellDFSPerCandidate is cellDFS without the level cutoff: it tests
// every cell of a level and counts each failing Algorithm 4 bound.
func (s *searcher) cellDFSPerCandidate(dim int, scoreSum float64) error {
	c := s.sctx
	for _, sc := range s.cellLists[dim] {
		sum := scoreSum + sc.score
		if !s.heap.WouldAccept(c.Combine(1, (sum+s.rbarSuffix[dim+1])/float64(c.M))) {
			s.delta.PrunedCellPrefixes++
			continue
		}
		s.cellTuple[dim] = sc.cell
		if s.opt.PruneCellNorm && !s.cellPrefixFeasible(dim) {
			continue
		}
		var err error
		if dim+1 == c.M {
			err = s.pointEnum()
		} else {
			err = s.cellDFSPerCandidate(dim+1, sum)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// perCandidateWorker is the searcher with cellDFSPerCandidate in place
// of cellDFS. Its counters stay in the searcher's delta, never reset.
type perCandidateWorker struct{ *searcher }

func (w perCandidateWorker) Prep(p *prepState, _, sub int) (int, error) {
	skip, err := w.prepareInto(p, w.work[sub])
	if err != nil || skip {
		return 0, err
	}
	return len(p.cellLists[0]), nil
}

// Chunk enumerates all of a prepared subspace: a sequential run has one
// chunk per subspace.
func (w perCandidateWorker) Chunk(p *prepState, _, _, _, _ int) error {
	w.attach(p)
	return w.cellDFSPerCandidate(0, 0)
}

// searchPerCandidate is the sequential search with cellDFSPerCandidate
// in place of cellDFS, with the same plan (memo, order and stop) and
// over the same prepared subspaces.
func searchPerCandidate(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) ([]topk.Entry, stats.Snapshot) {
	sctx := simil.NewContext(ds, q)
	ix := partition.NewIndex(ds)
	work, bounds, err := plan(sctx, ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	heap := topk.NewConcurrent(q.Params.K)
	s := newSearcher(context.Background(), sctx, heap, q, ix, work, opt)
	if _, err := sched.Run(new(sched.Pool[prepState]), len(work), sched.Bounds{Of: bounds, Accept: heap.WouldAccept}, 1, 1, sched.Tuning{},
		func() sched.Worker[prepState] { return perCandidateWorker{s} }); err != nil {
		t.Fatal(err)
	}
	return heap.Results(), testutil.EnumerationWork(s.delta)
}

// TestCutoffMatchesPerCandidateLoop holds the sequential search to the
// per-candidate cell loop the level cutoff replaced: bit-identical
// answers and the same enumeration counters on every
// testutil.EnumerationQueries shape, with and without the cell norm
// filter.
func TestCutoffMatchesPerCandidateLoop(t *testing.T) {
	for _, c := range testutil.EnumerationQueries() {
		for _, opt := range []Options{{}, {PruneCellNorm: true}} {
			want, wantWork := searchPerCandidate(t, c.DS, c.Q, opt)
			opt.Stats = &stats.Stats{}
			got, err := Search(context.Background(), c.DS, partition.NewIndex(c.DS), c.Q, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if work := testutil.EnumerationWork(opt.Stats.Snapshot()); !reflect.DeepEqual(got, want) || work != wantWork {
				t.Errorf("%s %+v: answers %v, counters %+v; per-candidate loop %v, %+v", c.Name, opt, got, work, want, wantWork)
			}
		}
	}
}
