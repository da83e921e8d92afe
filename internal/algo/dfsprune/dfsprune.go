// Package dfsprune reimplements the state-of-the-art baseline of Luo et
// al. (CIKM 2017) that the paper compares against (Section II-C).
//
// DFS-Prune enumerates candidate tuples dimension by dimension over the
// whole dataset. Per dimension, candidates are sorted descending by
// attribute similarity to the respective example point. Each prefix is
// scored with two upper bounds — the loose attribute bound (unseen
// dimensions count 1) and the Cauchy–Schwarz spatial completion bound
// (paper Eq. 5) — and pruned against the current k-th best similarity.
//
// For CSEQ the beta-norm constraint is checked at the leaves only: the
// baseline predates the constraint and has no space pruning, which is
// exactly why HSP and LORA beat it.
package dfsprune

import (
	"context"

	"spatialseq/internal/dataset"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// Search answers q exactly. The query must be validated. The context lets
// the evaluation harness cut off runs that would exceed its time budget
// (the paper reports ">24hours" cells for this baseline); on cancellation
// Search returns ctx.Err() and a nil result.
func Search(ctx context.Context, ds *dataset.Dataset, q *query.Query) ([]topk.Entry, error) {
	return SearchObserved(ctx, ds, q, nil, span.Span{})
}

// SearchObserved is Search with optional per-search counters and span
// tracing nested under parent: the baseline runs one worker over one
// whole-space "subspace", so its "dfs.candidates" and "dfs.search"
// units both sit on lane 0, followed by "topk.merge". st may be nil;
// the zero parent Span disables span tracing at no cost.
func SearchObserved(ctx context.Context, ds *dataset.Dataset, q *query.Query, st *stats.Stats, parent span.Span) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	defer sctx.Release()
	m := sctx.M
	s := &searcher{
		ctx:     ctx,
		sctx:    sctx,
		cands:   make([][]simil.Cand, m),
		heap:    topk.New(q.Params.K),
		tuple:   make([]int32, m),
		scratch: sctx.NewScratch(),
		// The baseline searches the whole space as one subspace.
		delta: stats.Snapshot{Subspaces: 1},
	}
	csp := parent.Unit("dfs.candidates", 0, 0)
	var bs simil.BatchScratch
	for d := 0; d < m; d++ {
		if fixed := q.Example.FixedDim(d); fixed >= 0 {
			s.cands[d] = []simil.Cand{{Pos: fixed, Sim: sctx.AttrSim(d, fixed)}}
		} else {
			pop := ds.CategoryObjects(q.Example.Categories[d])
			s.cands[d] = sctx.CandidatesBatchInto(make([]simil.Cand, 0, len(pop)), d, pop, &bs)
		}
		s.delta.Candidates += int64(len(s.cands[d]))
	}
	s.delta.SubspaceCandidatesMax = s.delta.Candidates
	csp.End()
	sub := parent.Unit("dfs.search", 0, 0)
	err := s.dfs(0, 0)
	sub.EndWork(s.delta)
	st.Add(s.delta)
	if err != nil {
		return nil, err
	}
	msp := parent.Child("topk.merge")
	res := s.heap.Results()
	msp.End()
	return res, nil
}

type searcher struct {
	ctx     context.Context
	sctx    *simil.Context
	cands   [][]simil.Cand
	heap    *topk.Heap
	tuple   []int32
	scratch *simil.Scratch
	steps   int
	// delta is the search's work: the candidate lists' volume, then
	// what the DFS hot loop counts into its plain fields.
	delta stats.Snapshot
}

// checkEvery bounds how often the cancellation context is polled.
const checkEvery = 4096

//seq:hotpath
func (s *searcher) dfs(dim int, attrSum float64) error {
	c := s.sctx
	for _, cand := range s.cands[dim] {
		if s.steps++; s.steps%checkEvery == 0 {
			select {
			case <-s.ctx.Done():
				return s.ctx.Err()
			default:
			}
		}
		if s.used(cand.Pos, dim) {
			continue
		}
		sum := attrSum + cand.Sim
		// Faithful to the CIKM'17 baseline: a failing prefix prunes only
		// its own subtree; later candidates in the sorted list are still
		// scanned. (HSP and LORA cut the level at the first failure; the
		// baseline deliberately does not.)
		attrBound := c.AttrBoundLoose(sum, dim+1)
		if !s.heap.WouldAccept(c.Combine(1, attrBound)) {
			s.delta.PrunedPrefixes++
			continue
		}
		s.tuple[dim] = cand.Pos
		added := s.scratch.Push(c.DS.Loc(int(cand.Pos)), cand.Sim)
		if dim+1 == c.M {
			s.delta.Tuples++
			if c.NormOK(s.scratch.PrefixNorm()) {
				if s.heap.Offer(s.tuple, c.TupleSim(s.scratch.Y, s.scratch.AttrSims)) {
					s.delta.Offered++
				}
			}
		} else {
			spatialBound := c.SpatialBoundEq5(s.scratch.Y)
			if s.heap.WouldAccept(c.Combine(spatialBound, attrBound)) {
				if err := s.dfs(dim+1, sum); err != nil {
					return err
				}
			} else {
				s.delta.PrunedPrefixes++
			}
		}
		s.scratch.Pop(added)
	}
	return nil
}

// used reports whether pos already occupies an earlier dimension of the
// current prefix (tuples may not repeat an object).
func (s *searcher) used(pos int32, dim int) bool {
	for d := 0; d < dim; d++ {
		if s.tuple[d] == pos {
			return true
		}
	}
	return false
}
