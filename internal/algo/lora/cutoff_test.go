package lora

import (
	"context"
	"reflect"
	"testing"

	"spatialseq/internal/dataset"
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
			s.local.prunedCells++
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

// searchPerCandidate is the sequential search with cellDFSPerCandidate
// in place of cellDFS, over the same prepared subspaces.
func searchPerCandidate(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) ([]topk.Entry, stats.Snapshot) {
	sctx := simil.NewContext(ds, q)
	part, err := buildIndex(ds).PartitionBucketed(sctx.PartitionRadius())
	if err != nil {
		t.Fatal(err)
	}
	heap := topk.New(q.Params.K)
	s, p := newSearcher(context.Background(), sctx, heap, q, opt), new(prepState)
	for i := range part.Subspaces {
		skip, err := s.prepareInto(p, &part.Subspaces[i])
		if err == nil && !skip {
			s.attach(p)
			err = s.cellDFSPerCandidate(0, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return heap.Results(), stats.Snapshot{Tuples: s.local.tuples, Offered: s.local.offered,
		CellTuples: s.local.cellTuples, PrunedCellPrefixes: s.local.prunedCells, RankPops: s.local.pops}
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
			got, err := Search(context.Background(), c.DS, buildIndex(c.DS), c.Q, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if work := testutil.EnumerationWork(opt.Stats.Snapshot()); !reflect.DeepEqual(got, want) || work != wantWork {
				t.Errorf("%s %+v: answers %v, counters %+v; per-candidate loop %v, %+v", c.Name, opt, got, work, want, wantWork)
			}
		}
	}
}
