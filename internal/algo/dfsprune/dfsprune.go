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
	"spatialseq/internal/obs"
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
	return SearchStats(ctx, ds, q, nil)
}

// SearchStats is Search with optional per-search counters.
func SearchStats(ctx context.Context, ds *dataset.Dataset, q *query.Query, st *stats.Stats) ([]topk.Entry, error) {
	return SearchTraced(ctx, ds, q, st, nil)
}

// SearchTraced is SearchStats with optional per-phase wall-time tracing
// (candidate enumeration, DFS, top-k merge). Both st and tr may be nil.
func SearchTraced(ctx context.Context, ds *dataset.Dataset, q *query.Query, st *stats.Stats, tr *obs.Trace) ([]topk.Entry, error) {
	return SearchObserved(ctx, ds, q, st, tr, span.Span{})
}

// SearchObserved is SearchTraced with hierarchical span tracing nested
// under parent: the baseline runs one worker over one whole-space
// "subspace", so its timeline is a single lane. The zero parent Span
// disables span tracing at no cost.
func SearchObserved(ctx context.Context, ds *dataset.Dataset, q *query.Query, st *stats.Stats, tr *obs.Trace, parent span.Span) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	m := sctx.M
	ws := parent.Worker("dfs.worker", 0)
	sp := tr.Start("dfs.candidates")
	csp := ws.Child("dfs.candidates")
	cands := make([][]simil.Cand, m)
	var candTotal int64
	for d := 0; d < m; d++ {
		if fixed := q.Example.FixedDim(d); fixed >= 0 {
			cands[d] = []simil.Cand{{Pos: fixed, Sim: sctx.AttrSim(d, fixed)}}
		} else {
			cands[d] = sctx.Candidates(d, ds.CategoryObjects(q.Example.Categories[d]))
		}
		candTotal += int64(len(cands[d]))
	}
	st.AddCandidates(candTotal)
	st.RaiseSubspaceCandidates(candTotal)
	csp.End()
	sp.End()
	st.AddSubspaces(1) // the baseline searches the whole space as one
	heap := topk.New(q.Params.K)
	s := &searcher{
		ctx:     ctx,
		sctx:    sctx,
		cands:   cands,
		heap:    heap,
		tuple:   make([]int32, m),
		scratch: sctx.NewScratch(),
	}
	sp = tr.Start("dfs.search")
	sub := ws.Subspace("dfs.search", 0)
	err := s.dfs(0, 0)
	sub.EndWork(stats.Snapshot{
		Subspaces:             1,
		Candidates:            candTotal,
		PrunedPrefixes:        s.pruned,
		Tuples:                s.tuples,
		Offered:               s.offered,
		SubspaceCandidatesMax: candTotal,
	})
	sp.End()
	st.AddPrunedPrefixes(s.pruned)
	st.AddTuples(s.tuples)
	st.AddOffered(s.offered)
	ws.End()
	if err != nil {
		return nil, err
	}
	sp = tr.Start("topk.merge")
	msp := parent.Child("topk.merge")
	res := heap.Results()
	msp.End()
	sp.End()
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

	pruned, tuples, offered int64
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
			s.pruned++
			continue
		}
		s.tuple[dim] = cand.Pos
		added := s.scratch.Push(c.DS.Loc(int(cand.Pos)), cand.Sim)
		if dim+1 == c.M {
			s.tuples++
			if c.NormOK(s.scratch.PrefixNorm()) {
				if s.heap.Offer(s.tuple, c.TupleSim(s.scratch.Y, s.scratch.AttrSims)) {
					s.offered++
				}
			}
		} else {
			spatialBound := c.SpatialBoundEq5(s.scratch.Y)
			if s.heap.WouldAccept(c.Combine(spatialBound, attrBound)) {
				if err := s.dfs(dim+1, sum); err != nil {
					return err
				}
			} else {
				s.pruned++
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
