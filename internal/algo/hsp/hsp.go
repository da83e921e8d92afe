// Package hsp implements the paper's exact algorithm HSP (Hierarchical
// Space Partitioning, Section III-B).
//
// HSP partitions the data space into core subspaces whose diagonal is
// below beta*||V_t*|| and searches each core's ac-subspace independently.
// Inside a subspace it runs Exact-DFS (Algorithm 1) with three refinements
// over DFS-Prune:
//
//  1. first-point-in-core selection (Lemma 1: every candidate tuple is
//     enumerated exactly once across all subspaces);
//  2. the refined attribute bound of Eq. 6 (unseen dimensions bounded by
//     the subspace's per-dimension maxima instead of 1);
//  3. the refined spatial bound of Eq. 9 combined with Eq. 5 (tighter
//     wins), plus unconditional pruning of prefixes whose partial distance
//     norm already exceeds beta*||V_t*||.
//
// Before it gathers any subspace, HSP bounds each one from the eager
// attribute memo and visits them best-first, stopping at the first whose
// bound cannot beat the k-th result (simil.Context.OrderByBound).
package hsp

import (
	"context"
	"math"
	"runtime"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// hspMinChunk floors the auto-sized steal chunks: below ~16 root
// candidates per unit the scheduler round-trip costs more than the DFS
// subtree it hands out.
const hspMinChunk = 16

// Options tune implementation details; the zero value is the paper's HSP.
type Options struct {
	// DisablePartition searches the whole space as one subspace (for the
	// A1 ablation benchmark isolating the partitioning gain).
	DisablePartition bool
	// LooseBounds falls back to DFS-Prune's bounds inside the subspace
	// search and visits every subspace in index order, with no subspace
	// bound or stop: the A4 ablation, which therefore measures the
	// refined bounds and the best-first stop together.
	LooseBounds bool
	// Parallelism spreads the search over this many goroutines sharing
	// one concurrent top-k (exactness is unaffected: a stale pruning
	// threshold only admits extra candidates, and the tie-break is
	// order-independent). The unit of parallel work is smaller than a
	// subspace: prepared subspaces are split into dim-0 candidate chunks
	// workers steal from a shared scheduler, so one fat subspace no
	// longer caps speedup. <= 1 searches sequentially; negative uses
	// GOMAXPROCS.
	Parallelism int
	// Steal sizes the stolen dim-0 chunks of the parallel path (see
	// sched.Tuning). The zero value auto-sizes.
	Steal sched.Tuning
	// Stats, when non-nil, collects per-search counters (subspaces,
	// candidates, pruned prefixes, scored tuples).
	Stats *stats.Stats
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under: "hsp.partition", "hsp.simprep" and
	// "hsp.bound" children for the plan, then one "hsp.candidates" unit
	// span per subspace prep and one "hsp.dfs" unit span per enumerated chunk,
	// each tagged with both its worker lane and owning subspace and
	// carrying that unit's work-counter delta. Sequential searches run
	// every unit on lane 0, one chunk per searched subspace. The zero
	// Span disables span tracing at no cost.
	Span span.Span
}

// Search answers q exactly using ix, the partition index built over ds
// (partition.NewIndex).
func Search(ctx context.Context, ds *dataset.Dataset, ix *partition.Index, q *query.Query, opt Options) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	workers := opt.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var sink topk.ResultSink
	if workers > 1 {
		sink = topk.NewConcurrent(q.Params.K)
	} else {
		sink = topk.New(q.Params.K)
	}
	work, bounds, err := plan(sctx, ix, opt)
	if err != nil {
		return nil, err
	}
	// Workers are deliberately not capped at len(work): chunked stealing
	// lets several workers share one subspace's DFS root level, so even a
	// single-subspace query (DisablePartition, or a pinned dim 0)
	// parallelizes.
	cut, err := sched.Run(len(work), sched.Bounds{Of: bounds, Accept: sink.WouldAccept}, workers, hspMinChunk, opt.Steal, func() sched.Worker[prepState] {
		return newSearcher(ctx, sctx, sink, q, ix, work, opt)
	})
	if err != nil {
		return nil, err
	}
	opt.Stats.AddSubspacesBounded(int64(cut))
	msp := opt.Span.Child("topk.merge")
	res := sink.Results()
	msp.End()
	return res, nil
}

// planPhases names HSP's plan spans.
var planPhases = simil.PlanPhases{Partition: "hsp.partition", Memo: "hsp.simprep", Bound: "hsp.bound"}

// plan returns the subspaces the search visits, in visiting order, with
// the bounds that stop it (simil.Context.Plan). DisablePartition plans
// one subspace covering everything, which stays exact (A1). LooseBounds
// keeps index order with no bounds and no stop, so the A4 ablation
// measures DFS-Prune's bounds over every subspace.
func plan(sctx *simil.Context, ix *partition.Index, opt Options) ([]*partition.Subspace, []float64, error) {
	radius := sctx.PartitionRadius()
	if opt.DisablePartition {
		radius = math.Inf(1)
	}
	return sctx.Plan(ix, simil.PlanSpec{Radius: radius, Ordered: !opt.LooseBounds,
		Phases: planPhases, Span: opt.Span, Stats: opt.Stats})
}

func newSearcher(ctx context.Context, sctx *simil.Context, sink topk.Sink, q *query.Query, ix *partition.Index, work []*partition.Subspace, opt Options) *searcher {
	return &searcher{
		ctx:     ctx,
		sctx:    sctx,
		heap:    sink,
		q:       q,
		ix:      ix,
		work:    work,
		span:    opt.Span,
		tuple:   make([]int32, sctx.M),
		scratch: sctx.NewScratch(),
		loose:   opt.LooseBounds,
		repeats: sameCategoryBefore(sctx.Ex),
		st:      opt.Stats,
	}
}

// Prep gathers subspace sub's candidate lists into p — exactly once per
// subspace, keeping the Lemma-1 discipline — and returns its dim-0
// candidate count, 0 when the subspace is skipped. The "hsp.candidates"
// unit span carries the subspace-level work delta (candidate volume,
// skip marks, memo hits); enumeration counters land on Chunk's spans.
func (s *searcher) Prep(p *prepState, w, sub int) (int, error) {
	sp := s.span.Unit("hsp.candidates", w, sub)
	skip, err := s.prepareInto(p, s.sctx.DS, s.q, s.work[sub])
	// Every similarity a prep reads comes from the memo when there is one.
	var hits int64
	if s.sctx.MemoShared() {
		hits = p.scored
	}
	s.st.AddAttrSimMemoHits(hits)
	if err != nil {
		sp.End()
		return 0, err
	}
	if skip {
		s.st.AddSubspacesSkipped(1)
		sp.EndWork(stats.Snapshot{SubspacesSkipped: 1, AttrSimMemoHits: hits})
		return 0, nil
	}
	s.st.AddSubspaces(1)
	s.st.AddCandidates(p.scored)
	s.st.RaiseSubspaceCandidates(p.scored)
	sp.EndWork(stats.Snapshot{
		Subspaces:             1,
		Candidates:            p.scored,
		AttrSimMemoHits:       hits,
		SubspaceCandidatesMax: p.scored,
	})
	return len(p.cands[0]), nil
}

// Chunk runs Exact-DFS over the dim-0 candidate range [lo, hi) of
// subspace sub, prepared in p. The "hsp.dfs" unit span carries the
// enumeration work delta, attributed to the owning subspace, so
// Tree.Skew keeps measuring per-lane busy time and the straggler
// attribution keeps naming the heaviest subspace.
func (s *searcher) Chunk(p *prepState, w, sub, lo, hi int) error {
	s.local = localCounters{}
	sp := s.span.Unit("hsp.dfs", w, sub)
	s.attach(p)
	err := s.dfs(0, 0, lo, hi)
	s.st.AddPrunedPrefixes(s.local.pruned)
	s.st.AddTuples(s.local.tuples)
	s.st.AddOffered(s.local.offered)
	sp.EndWork(stats.Snapshot{
		PrunedPrefixes: s.local.pruned,
		Tuples:         s.local.tuples,
		Offered:        s.local.offered,
	})
	return err
}

// localCounters batch the per-chunk statistics so the DFS hot loop
// touches plain ints, not atomics.
type localCounters struct {
	pruned, tuples, offered int64
}

// prepState is one subspace's prepared search state: the per-dimension
// candidate lists and Eq. 6 suffix maxima, and how many candidates the
// prep scored (a skipped subspace's lists up to the empty one).
// sched.Run pools prep states, hands each from the preparing worker to
// the chunk workers (read-only during enumeration), and recycles it
// when the subspace's last chunk finishes.
type prepState struct {
	cands      [][]simil.Cand
	rbarSuffix []float64
	scored     int64
}

type searcher struct {
	ctx     context.Context
	sctx    *simil.Context
	heap    topk.Sink
	q       *query.Query
	ix      *partition.Index
	work    []*partition.Subspace
	span    span.Span
	tuple   []int32
	scratch *simil.Scratch
	batch   simil.BatchScratch
	loose   bool
	// repeats[dim] is how many earlier tuple objects dim's candidate
	// list holds (see sameCategoryBefore).
	repeats []int

	// cands/rbarSuffix are views of the prep state attached for the
	// current DFS.
	cands      [][]simil.Cand
	rbarSuffix []float64
	steps      int
	st         *stats.Stats
	local      localCounters
}

// attach points the DFS at a prepared subspace's candidate lists and
// resets the prefix scratch.
func (s *searcher) attach(p *prepState) {
	s.cands = p.cands
	s.rbarSuffix = p.rbarSuffix
	s.scratch.Reset()
}

// prepareInto builds the per-subspace candidate lists and Eq. 6 suffix
// maxima into p. It reports skip=true when some dimension has no
// candidate (the subspace cannot produce a tuple) or a pinned object
// falls outside the ac-subspace. Each list is sorted only in its head,
// the candidates the DFS can still reach (see sortHead).
func (s *searcher) prepareInto(p *prepState, ds *dataset.Dataset, q *query.Query, ss *partition.Subspace) (skip bool, err error) {
	c := s.sctx
	m := c.M
	if p.cands == nil {
		p.cands = make([][]simil.Cand, m)
		p.rbarSuffix = make([]float64, m+1)
	}
	p.scored = 0
	for d := 0; d < m; d++ {
		region := ss.AC
		if d == 0 {
			region = ss.Core
		}
		if fixed := q.Example.FixedDim(d); fixed >= 0 {
			if !region.Contains(ds.Loc(int(fixed))) {
				return true, nil
			}
			p.cands[d] = append(p.cands[d][:0], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
		} else {
			p.cands[d] = c.RegionCandidatesInto(p.cands[d][:0], d, s.ix, region, &s.batch)
		}
		p.scored += int64(len(p.cands[d]))
		if len(p.cands[d]) == 0 {
			return true, nil
		}
	}
	// Every list leads with its maximum.
	p.rbarSuffix[m] = 0
	for d := m - 1; d >= 0; d-- {
		p.rbarSuffix[d] = p.rbarSuffix[d+1] + p.cands[d][0].Sim
	}
	var prefix float64
	for d := 0; d < m; d++ {
		best := p.cands[d][0].Sim
		s.sortHead(p.cands[d], d, prefix, p.rbarSuffix)
		prefix += best
	}
	return false, nil
}

// sortHead moves to the front of dim's list, and sorts, the candidates
// that can still pass the DFS's attribute-only bound; the rest stay
// unsorted behind them. A candidate can pass when its bound, taken at
// prefix (the sum of the earlier dimensions' maxima, added in the DFS's
// order), passes the threshold the sink holds now. The bound never
// rises as the candidate's sim or the prefix sum falls, float addition
// preserves order, and the threshold never falls. So every tail
// candidate fails at every visit: the DFS cuts at or before the first
// of them, and its cut count does not depend on the tail's order.
func (s *searcher) sortHead(list []simil.Cand, dim int, prefix float64, rbarSuffix []float64) {
	c := s.sctx
	n := 0
	for i, cand := range list {
		if s.heap.WouldAccept(c.Combine(1, s.attrBound(prefix+cand.Sim, dim+1, rbarSuffix))) {
			list[n], list[i] = list[i], list[n]
			n++
		}
	}
	simil.SortCandidates(list[:n])
}

// attrBound is the attribute-only bound on a tuple whose first next
// dimensions sum to attrSum: Eq. 6, or DFS-Prune's under LooseBounds.
//
//seq:hotpath
func (s *searcher) attrBound(attrSum float64, next int, rbarSuffix []float64) float64 {
	if s.loose {
		return s.sctx.AttrBoundLoose(attrSum, next)
	}
	return s.sctx.AttrBoundRefined(attrSum, next, rbarSuffix)
}

const checkEvery = 4096

// dfs is Exact-DFS (Algorithm 1) over the current subspace's
// candidates, restricted at this level to the index range [lo, hi) —
// the stealing path hands different dim-0 ranges of one subspace to
// different workers; recursion always descends over the next
// dimension's full list.
//
//seq:hotpath
func (s *searcher) dfs(dim int, attrSum float64, lo, hi int) error {
	c := s.sctx
	level := s.cands[dim][lo:hi]
	skipped := 0 // earlier tuple objects passed over before the cut
	for i, cand := range level {
		if s.steps++; s.steps%checkEvery == 0 {
			select {
			case <-s.ctx.Done():
				return s.ctx.Err()
			default:
			}
		}
		if s.used(cand.Pos, dim) {
			skipped++
			continue
		}
		sum := attrSum + cand.Sim
		attrBound := s.attrBound(sum, dim+1, s.rbarSuffix)
		if !s.heap.WouldAccept(c.Combine(1, attrBound)) {
			// The list's head is sorted by similarity, so the
			// attribute-only bound never rises along it, the top-k
			// threshold never falls, and every unsorted tail candidate
			// fails (sortHead): every later candidate fails too. Cut the
			// level and count what testing each of them would have
			// pruned, which skips the earlier tuple objects the tail
			// still holds.
			s.local.pruned += int64(len(level)-i) - int64(s.repeats[dim]-skipped)
			break
		}
		s.tuple[dim] = cand.Pos
		added := s.scratch.Push(c.DS.Loc(int(cand.Pos)), cand.Sim)
		if dim+1 == c.M {
			s.local.tuples++
			if c.NormOK(s.scratch.PrefixNorm()) {
				if s.heap.Offer(s.tuple, c.TupleSim(s.scratch.Y, s.scratch.AttrSims)) {
					s.local.offered++
				}
			}
		} else {
			var spatialBound float64
			if s.loose {
				spatialBound = c.SpatialBoundEq5(s.scratch.Y)
			} else {
				spatialBound = c.SpatialBound(s.scratch.Y)
			}
			if !math.IsInf(spatialBound, -1) &&
				s.heap.WouldAccept(c.Combine(spatialBound, attrBound)) {
				if err := s.dfs(dim+1, sum, 0, len(s.cands[dim+1])); err != nil {
					return err
				}
			} else {
				s.local.pruned++
			}
		}
		s.scratch.Pop(added)
	}
	return nil
}

// sameCategoryBefore counts, per example dimension, the earlier
// dimensions that share its category. Their tuple objects all sit in the
// dimension's candidate list: a prefix object lies in the ac-subspace
// (its AC rectangle contains the core), and the list is exactly the
// ac-subspace's objects of that category (partition.Index.Gather over
// AC). A pinned dimension's list holds only its own object and counts
// none.
func sameCategoryBefore(ex *query.Example) []int {
	out := make([]int, ex.M())
	for dim := range out {
		if ex.FixedDim(dim) >= 0 {
			continue
		}
		for d := 0; d < dim; d++ {
			if ex.Categories[d] == ex.Categories[dim] {
				out[dim]++
			}
		}
	}
	return out
}

func (s *searcher) used(pos int32, dim int) bool {
	for d := 0; d < dim; d++ {
		if s.tuple[d] == pos {
			return true
		}
	}
	return false
}
