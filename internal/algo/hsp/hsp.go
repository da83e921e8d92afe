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
//
// A subspace's prep splits each candidate list into a head, the
// candidates that can still pass the attribute-only bound, and a tail.
// The DFS sorts the head only as far as it reads it (headOrder), so that
// sort runs inside the "hsp.dfs" units, not the "hsp.candidates" ones.
package hsp

import (
	"context"
	"math"
	"slices"
	"sync"

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
	// Parallelism spreads the search over this many workers sharing
	// one concurrent top-k (exactness is unaffected: a stale pruning
	// threshold only admits extra candidates, and the tie-break is
	// order-independent). The unit of parallel work is smaller than a
	// subspace: prepared subspaces are split into dim-0 candidate chunks
	// workers steal from a shared scheduler, so one fat subspace no
	// longer caps speedup. <= 1 runs one worker, on the calling
	// goroutine; negative uses GOMAXPROCS.
	Parallelism int
	// Steal sizes the stolen dim-0 chunks when more than one worker
	// runs (see sched.Tuning). The zero value auto-sizes.
	Steal sched.Tuning
	// Stats, when non-nil, collects per-search counters (subspaces,
	// candidates, pruned prefixes, scored tuples).
	Stats *stats.Stats
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under: "hsp.partition", "hsp.simprep" and
	// "hsp.bound" children for the plan, then one "hsp.candidates" unit
	// span per subspace prep and one "hsp.dfs" unit span per enumerated
	// chunk, each tagged with both its worker lane and owning subspace
	// and carrying that unit's work-counter delta. A prep gathers,
	// scores and splits the candidate lists; the sort of their heads
	// runs in the "hsp.dfs" units, as far as each reads. The memo fill
	// and the bound pass carry their deltas too, so the deltas sum to
	// Stats but for SubspacesBounded. Sequential searches run every
	// unit on lane 0, one chunk per searched subspace. The zero Span
	// disables span tracing at no cost.
	Span span.Span
}

// Search answers q exactly using ix, the partition index built over ds
// (partition.NewIndex).
func Search(ctx context.Context, ds *dataset.Dataset, ix *partition.Index, q *query.Query, opt Options) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	defer sctx.Release()
	sink := topk.NewConcurrent(q.Params.K)
	work, bounds, err := plan(sctx, ix, opt)
	if err != nil {
		return nil, err
	}
	// Workers are deliberately not capped at len(work): chunked stealing
	// lets several workers share one subspace's DFS root level, so even a
	// single-subspace query (DisablePartition, or a pinned dim 0)
	// parallelizes. Run makes the workers on this goroutine, so they
	// can be collected here and released once it returns.
	var made [2]*searcher
	wks := made[:0]
	cut, err := sched.Run(&states, len(work), sched.Bounds{Of: bounds, Accept: sink.WouldAccept}, opt.Parallelism, hspMinChunk, opt.Steal, func() sched.Worker[prepState] {
		s := newSearcher(ctx, sctx, sink, q, ix, work, opt)
		wks = append(wks, s)
		return s
	})
	for _, s := range wks {
		s.release()
	}
	if err != nil {
		return nil, err
	}
	// No unit ran the bounded subspaces, so no span carries them.
	opt.Stats.Add(stats.Snapshot{SubspacesBounded: int64(cut)})
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

// states and searchers keep HSP's prepared states and searchers, with
// their buffers, from one query to the next.
var (
	states    sched.Pool[prepState]
	searchers sched.Pool[searcher]
)

// newSearcher takes a searcher from searchers and readies it for one
// query's search; release gives it back.
func newSearcher(ctx context.Context, sctx *simil.Context, sink *topk.Concurrent, q *query.Query, ix *partition.Index, work []*partition.Subspace, opt Options) *searcher {
	s := searchers.Get()
	s.ctx, s.sctx, s.heap, s.q, s.ix, s.work = ctx, sctx, sink, q, ix, work
	s.span, s.loose, s.st = opt.Span, opt.LooseBounds, opt.Stats
	s.tuple = slices.Grow(s.tuple[:0], sctx.M)[:sctx.M]
	sctx.ResetScratch(&s.scratch)
	s.repeats = sameCategoryBefore(s.repeats, sctx.Ex)
	return s
}

// release gives s back to searchers. It keeps only the buffers that
// hold nothing of the query: the tuple, the DFS and batch scratch and
// the repeat counts, all rewritten before the next query reads them.
func (s *searcher) release() {
	*s = searcher{
		tuple:   s.tuple,
		scratch: simil.Scratch{Y: s.scratch.Y, Locs: s.scratch.Locs, AttrSims: s.scratch.AttrSims},
		batch:   s.batch,
		repeats: s.repeats,
	}
	searchers.Put(s)
}

// Prep gathers subspace sub's candidate lists into p — exactly once per
// subspace, keeping the Lemma-1 discipline — and returns its dim-0
// candidate count, 0 when the subspace is skipped. Its delta (candidate
// volume, skip marks, memo hits) goes to the "hsp.candidates" unit span
// and to the counters alike; enumeration counters come from Chunk.
func (s *searcher) Prep(p *prepState, w, sub int) (int, error) {
	sp := s.span.Unit("hsp.candidates", w, sub)
	var delta stats.Snapshot
	skip := s.prepareInto(p, s.sctx.DS, s.q, s.work[sub])
	if skip {
		delta.SubspacesSkipped = 1
	} else {
		delta.Subspaces, delta.Candidates, delta.SubspaceCandidatesMax = 1, p.scored, p.scored
	}
	// Every similarity a prep reads comes from the memo when there is one.
	if s.sctx.MemoShared() {
		delta.AttrSimMemoHits = p.scored
	}
	sp.EndWork(delta)
	s.st.Add(delta)
	if skip {
		return 0, nil
	}
	return len(p.cands[0]), nil
}

// Chunk runs Exact-DFS over the dim-0 candidate range [lo, hi) of
// subspace sub, prepared in p. The DFS counts into s.delta, which goes
// to the "hsp.dfs" unit span, attributed to the owning subspace, and to
// the counters alike, so Tree.Skew keeps measuring per-lane busy time
// and the straggler attribution keeps naming the heaviest subspace.
func (s *searcher) Chunk(p *prepState, w, sub, lo, hi int) error {
	s.delta = stats.Snapshot{}
	sp := s.span.Unit("hsp.dfs", w, sub)
	s.attach(p)
	err := s.dfs(0, 0, lo, hi)
	sp.EndWork(s.delta)
	s.st.Add(s.delta)
	return err
}

// prepState is one subspace's prepared search state: the per-dimension
// candidate lists with their head orders, the Eq. 6 suffix maxima, and
// how many candidates the prep scored (a skipped subspace's lists up to
// the empty one). sched.Run takes prep states from states, hands each
// from the preparing worker to the chunk workers, and gives it back
// when the subspace's last chunk finishes; the next prep, of this query
// or a later one, sizes it to its m (size) and regrows only the lists
// that outgrow it. Chunk workers share it: each reads a list below the
// ready length it loaded, and extends a head order only under mu.
type prepState struct {
	cands      [][]simil.Cand
	orders     []headOrder
	rbarSuffix []float64
	scored     int64
	mu         sync.Mutex
}

// size readies p for a query of m dimensions. The lists and orders it
// keeps are stale until the prep rewrites them. orders holds atomics,
// so it grows by allocating, never by copying live values.
func (p *prepState) size(m int) {
	if cap(p.orders) < m {
		p.cands, p.orders, p.rbarSuffix = make([][]simil.Cand, m), make([]headOrder, m), make([]float64, m+1)
	}
	p.cands, p.orders, p.rbarSuffix = p.cands[:m], p.orders[:m], p.rbarSuffix[:m+1]
}

type searcher struct {
	ctx     context.Context
	sctx    *simil.Context
	heap    *topk.Concurrent
	q       *query.Query
	ix      *partition.Index
	work    []*partition.Subspace
	span    span.Span
	tuple   []int32
	scratch simil.Scratch
	batch   simil.BatchScratch
	loose   bool
	// repeats[dim] is how many earlier tuple objects dim's candidate
	// list holds (see sameCategoryBefore).
	repeats []int

	// prep is the prep state attached for the current DFS, and
	// cands/rbarSuffix are views of it.
	prep       *prepState
	cands      [][]simil.Cand
	rbarSuffix []float64
	steps      int
	st         *stats.Stats
	// delta is the current chunk's work: the DFS hot loop counts into
	// its plain fields.
	delta stats.Snapshot
}

// attach points the DFS at a prepared subspace's candidate lists and
// resets the prefix scratch.
func (s *searcher) attach(p *prepState) {
	s.prep = p
	s.cands = p.cands
	s.rbarSuffix = p.rbarSuffix
	s.scratch.Reset()
}

// prepareInto builds the per-subspace candidate lists and Eq. 6 suffix
// maxima into p. It reports skip=true when some dimension has no
// candidate (the subspace cannot produce a tuple) or a pinned object
// falls outside the ac-subspace. Each list is split into a head, the
// candidates the DFS can still reach, and a tail (see splitHead); the
// DFS sorts the head as it reads it.
func (s *searcher) prepareInto(p *prepState, ds *dataset.Dataset, q *query.Query, ss *partition.Subspace) (skip bool) {
	c := s.sctx
	m := c.M
	p.size(m)
	p.scored = 0
	for d := 0; d < m; d++ {
		region := ss.AC
		if d == 0 {
			region = ss.Core
		}
		if fixed := q.Example.FixedDim(d); fixed >= 0 {
			if !region.Contains(ds.Loc(int(fixed))) {
				return true
			}
			p.cands[d] = append(p.cands[d][:0], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
		} else {
			p.cands[d] = c.RegionCandidatesInto(p.cands[d][:0], d, s.ix, region, &s.batch)
		}
		p.scored += int64(len(p.cands[d]))
		if len(p.cands[d]) == 0 {
			return true
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
		p.orders[d].reset(s.splitHead(p.cands[d], d, prefix, p.rbarSuffix), len(p.cands[d]))
		prefix += best
	}
	return false
}

// splitHead moves to the front of dim's list the candidates that can
// still pass the DFS's attribute-only bound, its head, and returns how
// many there are; the rest, its tail, stay behind them. It sorts
// nothing: the DFS sorts the head as it reads it (headOrder). A
// candidate can pass when its bound, taken at prefix (the sum of the
// earlier dimensions' maxima, added in the DFS's order), passes the
// threshold the sink holds now. The bound never rises as the
// candidate's sim or the prefix sum falls, float addition preserves
// order, and the threshold never falls. So every tail candidate fails
// at every visit: the DFS cuts at or before the first of them, and its
// cut count does not depend on the tail's order.
func (s *searcher) splitHead(list []simil.Cand, dim int, prefix float64, rbarSuffix []float64) int {
	c := s.sctx
	n := 0
	for i, cand := range list {
		if s.heap.WouldAccept(c.Combine(1, s.attrBound(prefix+cand.Sim, dim+1, rbarSuffix))) {
			list[n], list[i] = list[i], list[n]
			n++
		}
	}
	return n
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
// dimension's full list. It reads the list below its head order's ready
// length and extends the order on reaching it, so every index it reads
// holds what the fully sorted head holds there.
//
//seq:hotpath
func (s *searcher) dfs(dim int, attrSum float64, lo, hi int) error {
	c := s.sctx
	list := s.cands[dim]
	ready := int(s.prep.orders[dim].ready.Load())
	skipped := 0 // earlier tuple objects passed over before the cut
	for i := lo; i < hi; i++ {
		if i >= ready {
			ready = s.prep.extend(dim, i)
		}
		cand := list[i]
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
			// The list's head is read in similarity order, so the
			// attribute-only bound never rises along it, the top-k
			// threshold never falls, and every tail candidate fails
			// (splitHead): every later candidate fails too. Cut the
			// level and count what testing each of them would have
			// pruned, which skips the earlier tuple objects the tail
			// still holds.
			s.delta.PrunedPrefixes += int64(hi-i) - int64(s.repeats[dim]-skipped)
			break
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
				s.delta.PrunedPrefixes++
			}
		}
		s.scratch.Pop(added)
	}
	return nil
}

// sameCategoryBefore counts into out, resized, per example dimension,
// the earlier dimensions that share its category. Their tuple objects
// all sit in the dimension's candidate list: a prefix object lies in
// the ac-subspace (its AC rectangle contains the core), and the list is
// exactly the ac-subspace's objects of that category
// (partition.Index.Gather over AC). A pinned dimension's list holds
// only its own object and counts none.
func sameCategoryBefore(out []int, ex *query.Example) []int {
	out = slices.Grow(out[:0], ex.M())[:ex.M()]
	clear(out)
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
