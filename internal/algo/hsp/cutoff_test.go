package hsp

import (
	"context"
	"math"
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

// dfsPerCandidate is dfs without the level cutoff: it tests every
// candidate of a level and counts each failing attribute-only bound. It
// returns how many earlier tuple objects sat in a level's tail after its
// first failure: the ones the cutoff's count must leave out.
func (s *searcher) dfsPerCandidate(dim int, attrSum float64) (tailUsed int) {
	c := s.sctx
	failed := false
	for _, cand := range s.cands[dim] {
		if s.used(cand.Pos, dim) {
			if failed {
				tailUsed++
			}
			continue
		}
		sum := attrSum + cand.Sim
		attrBound := c.AttrBoundRefined(sum, dim+1, s.rbarSuffix)
		if s.loose {
			attrBound = c.AttrBoundLoose(sum, dim+1)
		}
		if !s.heap.WouldAccept(c.Combine(1, attrBound)) {
			s.delta.PrunedPrefixes++
			failed = true
			continue
		}
		s.tuple[dim] = cand.Pos
		added := s.scratch.Push(c.DS.Loc(int(cand.Pos)), cand.Sim)
		spatialBound := c.SpatialBound(s.scratch.Y)
		if s.loose {
			spatialBound = c.SpatialBoundEq5(s.scratch.Y)
		}
		switch {
		case dim+1 == c.M:
			s.delta.Tuples++
			if c.NormOK(s.scratch.PrefixNorm()) && s.heap.Offer(s.tuple, c.TupleSim(s.scratch.Y, s.scratch.AttrSims)) {
				s.delta.Offered++
			}
		case !math.IsInf(spatialBound, -1) && s.heap.WouldAccept(c.Combine(spatialBound, attrBound)):
			tailUsed += s.dfsPerCandidate(dim+1, sum)
		default:
			s.delta.PrunedPrefixes++
		}
		s.scratch.Pop(added)
	}
	return tailUsed
}

// searchPerCandidate is the sequential search with dfsPerCandidate in
// place of dfs, over the same prepared subspaces. dfsPerCandidate reads
// the lists directly, so its prep sorts every head in full.
func searchPerCandidate(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) ([]topk.Entry, stats.Snapshot, int) {
	tailUsed := 0
	res, work, _ := searchSequential(t, ds, q, opt,
		func(s *searcher, p *prepState, ss *partition.Subspace) bool {
			skip := s.prepareInto(p, ds, q, ss)
			if !skip {
				for d, list := range p.cands {
					simil.SortCandidates(list[:p.orders[d].n])
					p.orders[d].reset(0, len(list))
				}
			}
			return skip
		},
		func(s *searcher) { tailUsed += s.dfsPerCandidate(0, 0) })
	return res, testutil.EnumerationWork(work), tailUsed
}

// TestCutoffMatchesPerCandidateLoop holds the sequential search to the
// per-candidate loop the level cutoff replaced: bit-identical answers
// and the same enumeration counters on every testutil.EnumerationQueries
// shape, under each bound variant.
func TestCutoffMatchesPerCandidateLoop(t *testing.T) {
	tailUsed := map[string]int{}
	for _, c := range testutil.EnumerationQueries() {
		for _, opt := range []Options{{}, {LooseBounds: true}, {DisablePartition: true}} {
			want, wantWork, tu := searchPerCandidate(t, c.DS, c.Q, opt)
			tailUsed[c.Shape] += tu
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
	for _, shape := range []string{"one-category", "one-category-pinned"} {
		if tailUsed[shape] == 0 {
			t.Errorf("%s: no cut tail held an earlier tuple object, so the count's subtraction went untested", shape)
		}
	}
}
