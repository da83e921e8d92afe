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
package hsp

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs"
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
	// search (A4 ablation isolating the refined-bound gain).
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
	// Steal tunes the work-unit scheduler of the parallel path (chunk
	// sizing of the stolen dim-0 ranges). The zero value auto-sizes.
	Steal sched.Tuning
	// Own, when non-nil, restricts the search to the subspaces whose core
	// rectangle it claims. The sharded serving tier hands each shard a
	// disjoint claim over the subspace cores: Lemma 1 enumerates every
	// candidate tuple in exactly one core subspace, so the union of the
	// shards' filtered searches equals the unfiltered search. Must be
	// pure (same answer for the same rectangle within one call).
	Own func(core geo.Rect) bool
	// Sink, when non-nil, replaces the internally allocated top-k
	// collector. It must be safe for concurrent use when Parallelism > 1.
	// The sharded tier injects a sink that couples the shard-local top-k
	// to the cross-shard pruning-threshold exchange.
	Sink topk.ResultSink
	// Stats, when non-nil, collects per-search counters (subspaces,
	// candidates, pruned prefixes, scored tuples).
	Stats *stats.Stats
	// Trace, when non-nil, records per-phase wall time (partitioning,
	// candidate enumeration, DFS, top-k merge). With Parallelism > 1
	// the phase times sum across workers and can exceed wall time.
	Trace *obs.Trace
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under. The sequential path opens one worker
	// lane with a subspace span per searched subspace; the parallel path
	// opens one "hsp.prep" / "hsp.chunk" unit span per stolen work unit,
	// each tagged with both its worker lane and owning subspace and
	// carrying that unit's work-counter delta. The zero Span disables
	// span tracing at no cost.
	Span span.Span
}

// Search answers q exactly using the prebuilt partition index ix (which
// must index exactly the locations of ds, in dataset position order).
func Search(ctx context.Context, ds *dataset.Dataset, ix *partition.Index, q *query.Query, opt Options) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	radius := sctx.PartitionRadius()
	if opt.DisablePartition {
		// Ablation flag: one subspace covering everything stays exact.
		radius = math.Inf(1)
	}
	sp := opt.Trace.Start("hsp.partition")
	psp := opt.Span.Child("hsp.partition")
	part, err := ix.PartitionBucketed(radius)
	psp.End()
	sp.End()
	if err != nil {
		return nil, err
	}

	// If dimension 0 is pinned, only the subspace owning that point's core
	// can produce results (Lemma 1 discipline).
	fixed0 := q.Example.FixedDim(0)
	work := make([]*partition.Subspace, 0, len(part.Subspaces))
	for si := range part.Subspaces {
		ss := &part.Subspaces[si]
		if fixed0 >= 0 && !ss.Core.Contains(ds.Loc(int(fixed0))) {
			continue
		}
		if opt.Own != nil && !opt.Own(ss.Core) {
			continue
		}
		work = append(work, ss)
	}

	workers := opt.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Workers are deliberately not capped at len(work): chunked stealing
	// lets several workers share one subspace's DFS root level, so even a
	// single-subspace query (DisablePartition, or a pinned dim 0)
	// parallelizes.
	// With more than one subspace the overlapping ac-regions revisit the
	// same (dimension, object) pairs, so memoize the attribute cosines:
	// lazily on the sequential path, eagerly (read-only, worker-safe) when
	// subspaces run in parallel. A single subspace has no reuse to win.
	if len(work) > 1 {
		sp = opt.Trace.Start("hsp.simprep")
		ssp := opt.Span.Child("hsp.simprep")
		if workers > 1 {
			opt.Stats.AddAttrSimMemoMisses(sctx.PrepareMemoShared())
		} else {
			sctx.EnableMemo()
		}
		ssp.End()
		sp.End()
	}
	if workers <= 1 {
		var heap topk.ResultSink = topk.New(q.Params.K)
		if opt.Sink != nil {
			heap = opt.Sink
		}
		s := newSearcher(ctx, sctx, heap, opt)
		ws := opt.Span.Worker("hsp.worker", 0)
		for i, ss := range work {
			sub := ws.Subspace("hsp.subspace", i)
			if err := s.searchSubspace(ds, q, ss, sub); err != nil {
				ws.End()
				return nil, err
			}
		}
		ws.End()
		h, mi := sctx.MemoCounters()
		opt.Stats.AddAttrSimMemoHits(h)
		opt.Stats.AddAttrSimMemoMisses(mi)
		sp = opt.Trace.Start("topk.merge")
		msp := opt.Span.Child("topk.merge")
		res := heap.Results()
		msp.End()
		sp.End()
		return res, nil
	}

	var sink topk.ResultSink = topk.NewConcurrent(q.Params.K)
	if opt.Sink != nil {
		sink = opt.Sink
	}
	tun := opt.Steal
	if tun.MinChunk <= 0 {
		tun.MinChunk = hspMinChunk
	}
	run := &stealRun{
		sch:   sched.New(len(work), workers, tun),
		work:  work,
		preps: make([]*prepState, len(work)),
	}
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		callErr error
	)
	record := func(err error) {
		errOnce.Do(func() { callErr = err })
		run.sch.Abort()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := newSearcher(ctx, sctx, sink, opt)
			for {
				u, ok := run.sch.Acquire()
				if !ok {
					return
				}
				var err error
				if u.Prep {
					err = s.prepUnit(ds, q, run, u.Sub, w, opt.Span)
				} else {
					err = s.chunkUnit(run, u, w, opt.Span)
				}
				if err != nil {
					record(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if callErr != nil {
		return nil, callErr
	}
	sp = opt.Trace.Start("topk.merge")
	msp := opt.Span.Child("topk.merge")
	res := sink.Results()
	msp.End()
	sp.End()
	return res, nil
}

// stealRun is the shared state of one parallel stealing search: the
// work-unit scheduler, the prepared-subspace handoff slots, and a small
// recycling pool of prep states (bounded by the worker count, because
// the scheduler drains queued chunks before starting new preps).
// preps[i] is written by the preparing worker before Publish and read
// by chunk workers after Acquire; the scheduler's lock orders the two.
type stealRun struct {
	sch   *sched.Scheduler
	work  []*partition.Subspace
	preps []*prepState

	mu   sync.Mutex
	pool []*prepState
}

func (r *stealRun) take() *prepState {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pool); n > 0 {
		p := r.pool[n-1]
		r.pool = r.pool[:n-1]
		return p
	}
	return new(prepState)
}

func (r *stealRun) put(p *prepState) {
	r.mu.Lock()
	r.pool = append(r.pool, p)
	r.mu.Unlock()
}

// prepUnit prepares one subspace — exactly once per subspace, keeping
// the Lemma-1 discipline — and publishes its dim-0 candidate range to
// the scheduler as steal-able chunks. The prep span carries the
// subspace-level work delta (candidate volume, skip marks, memo hits);
// enumeration counters land on the chunk spans.
func (s *searcher) prepUnit(ds *dataset.Dataset, q *query.Query, run *stealRun, sub, w int, parent span.Span) error {
	s.local = localCounters{}
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	p := run.take()
	sp := parent.Unit("hsp.prep", w, sub)
	skip, err := s.prepareInto(p, ds, q, run.work[sub])
	if s.tr != nil {
		s.tr.Add("hsp.candidates", time.Since(t0))
	}
	if err != nil || skip {
		if skip {
			s.st.AddSubspacesSkipped(1)
			sp.EndWork(stats.Snapshot{SubspacesSkipped: 1, AttrSimMemoHits: s.local.memoHits})
		} else {
			sp.End()
		}
		s.st.AddAttrSimMemoHits(s.local.memoHits)
		run.sch.Publish(sub, 0)
		run.put(p)
		return err
	}
	s.st.AddSubspaces(1)
	s.st.AddCandidates(p.candTotal)
	s.st.RaiseSubspaceCandidates(p.candTotal)
	s.st.AddAttrSimMemoHits(s.local.memoHits)
	sp.EndWork(stats.Snapshot{
		Subspaces:             1,
		Candidates:            p.candTotal,
		AttrSimMemoHits:       s.local.memoHits,
		SubspaceCandidatesMax: p.candTotal,
	})
	run.preps[sub] = p
	if run.sch.Publish(sub, len(p.cands[0])) == 0 {
		// Aborted before any chunk was queued: no Done will follow, so
		// reclaim the prepared state here.
		run.preps[sub] = nil
		run.put(p)
	}
	return nil
}

// chunkUnit runs Exact-DFS over one stolen chunk: the dim-0 candidate
// range [u.Lo, u.Hi) of an already-prepared subspace. The chunk span
// carries the enumeration work delta, attributed to the owning
// subspace, so Tree.Skew keeps measuring per-lane busy time and the
// straggler attribution keeps naming the heaviest subspace.
func (s *searcher) chunkUnit(run *stealRun, u sched.Unit, w int, parent span.Span) error {
	p := run.preps[u.Sub]
	s.local = localCounters{}
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	sp := parent.Unit("hsp.chunk", w, u.Sub)
	s.attach(p)
	err := s.dfs(0, 0, u.Lo, u.Hi)
	if s.tr != nil {
		s.tr.Add("hsp.dfs", time.Since(t0))
	}
	s.st.AddPrunedPrefixes(s.local.pruned)
	s.st.AddTuples(s.local.tuples)
	s.st.AddOffered(s.local.offered)
	sp.EndWork(stats.Snapshot{
		PrunedPrefixes: s.local.pruned,
		Tuples:         s.local.tuples,
		Offered:        s.local.offered,
	})
	if run.sch.Done(u.Sub) {
		run.preps[u.Sub] = nil
		run.put(p)
	}
	return err
}

func newSearcher(ctx context.Context, sctx *simil.Context, sink topk.Sink, opt Options) *searcher {
	return &searcher{
		ctx:     ctx,
		sctx:    sctx,
		heap:    sink,
		tuple:   make([]int32, sctx.M),
		scratch: sctx.NewScratch(),
		loose:   opt.LooseBounds,
		repeats: sameCategoryBefore(sctx.Ex),
		// With a shared (eagerly filled) memo the Context counts nothing;
		// each worker tallies its own hits in the local batch instead.
		countHits: sctx.MemoShared(),
		st:        opt.Stats,
		tr:        opt.Trace,
	}
}

// searchSubspace prepares and runs Exact-DFS over one subspace — the
// sequential path, where prep and enumeration stay on one goroutine.
// The sub span (a no-op when span tracing is off) is closed on every
// return path, carrying this subspace's work-counter delta.
func (s *searcher) searchSubspace(ds *dataset.Dataset, q *query.Query, ss *partition.Subspace, sub span.Span) error {
	s.local = localCounters{}
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	csp := sub.Child("hsp.candidates")
	if s.own == nil {
		s.own = new(prepState)
	}
	skip, err := s.prepareInto(s.own, ds, q, ss)
	csp.End()
	if s.tr != nil {
		s.tr.Add("hsp.candidates", time.Since(t0))
	}
	if err != nil || skip {
		if skip {
			s.st.AddSubspacesSkipped(1)
			sub.EndWork(stats.Snapshot{SubspacesSkipped: 1, AttrSimMemoHits: s.local.memoHits})
		} else {
			sub.End()
		}
		s.st.AddAttrSimMemoHits(s.local.memoHits)
		return err
	}
	s.st.AddSubspaces(1)
	candTotal := s.own.candTotal
	s.st.AddCandidates(candTotal)
	s.st.RaiseSubspaceCandidates(candTotal)
	if s.tr != nil {
		t0 = time.Now()
	}
	dsp := sub.Child("hsp.dfs")
	s.attach(s.own)
	err = s.dfs(0, 0, 0, len(s.cands[0]))
	dsp.End()
	if s.tr != nil {
		s.tr.Add("hsp.dfs", time.Since(t0))
	}
	s.st.AddPrunedPrefixes(s.local.pruned)
	s.st.AddTuples(s.local.tuples)
	s.st.AddOffered(s.local.offered)
	s.st.AddAttrSimMemoHits(s.local.memoHits)
	sub.EndWork(stats.Snapshot{
		Subspaces:             1,
		Candidates:            candTotal,
		PrunedPrefixes:        s.local.pruned,
		Tuples:                s.local.tuples,
		Offered:               s.local.offered,
		AttrSimMemoHits:       s.local.memoHits,
		SubspaceCandidatesMax: candTotal,
	})
	return err
}

// localCounters batch the per-subspace statistics so the DFS hot loop
// touches plain ints, not atomics.
type localCounters struct {
	pruned, tuples, offered, memoHits int64
}

// prepState is one subspace's prepared search state: the per-dimension
// candidate lists and Eq. 6 suffix maxima. On the sequential path each
// searcher owns one and reuses it across subspaces; on the stealing
// path prep states are pooled, handed from the preparing worker to
// chunk workers (read-only during enumeration), and recycled when the
// subspace's last chunk finishes.
type prepState struct {
	cands      [][]simil.Cand
	rbarSuffix []float64
	candTotal  int64
}

type searcher struct {
	ctx       context.Context
	sctx      *simil.Context
	heap      topk.Sink
	tuple     []int32
	scratch   *simil.Scratch
	batch     simil.BatchScratch
	loose     bool
	countHits bool
	// repeats[dim] is how many earlier tuple objects dim's candidate
	// list holds (see sameCategoryBefore).
	repeats []int

	// own is the sequential path's reusable prep state; cands/rbarSuffix
	// are views of whichever prep state is attached for the current DFS.
	own        *prepState
	cands      [][]simil.Cand
	rbarSuffix []float64
	steps      int
	st         *stats.Stats
	tr         *obs.Trace
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
// falls outside the ac-subspace.
func (s *searcher) prepareInto(p *prepState, ds *dataset.Dataset, q *query.Query, ss *partition.Subspace) (skip bool, err error) {
	c := s.sctx
	m := c.M
	if p.cands == nil {
		p.cands = make([][]simil.Cand, m)
		p.rbarSuffix = make([]float64, m+1)
	}
	p.candTotal = 0
	for d := 0; d < m; d++ {
		if fixed := q.Example.FixedDim(d); fixed >= 0 {
			loc := ds.Loc(int(fixed))
			region := ss.AC
			if d == 0 {
				region = ss.Core
			}
			if !region.Contains(loc) {
				return true, nil
			}
			p.cands[d] = append(p.cands[d][:0], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
			if s.countHits {
				s.local.memoHits++
			}
			continue
		}
		source := ss.ACPoints
		if d == 0 {
			source = ss.CorePoints
		}
		p.cands[d] = s.candidatesInto(d, source, p.cands[d][:0])
		if len(p.cands[d]) == 0 {
			return true, nil
		}
	}
	p.rbarSuffix[m] = 0
	for d := m - 1; d >= 0; d-- {
		p.rbarSuffix[d] = p.rbarSuffix[d+1] + p.cands[d][0].Sim
	}
	for d := 0; d < m; d++ {
		p.candTotal += int64(len(p.cands[d]))
	}
	return false, nil
}

// candidatesInto wraps the blocked simil.Context.CandidatesBatchInto
// with the per-worker buffer reuse and, on the shared-memo path, the
// hit accounting (every AttrSim against a complete read-only table is
// a hit).
func (s *searcher) candidatesInto(dim int, positions []int32, dst []simil.Cand) []simil.Cand {
	dst = s.sctx.CandidatesBatchInto(dst, dim, positions, &s.batch)
	if s.countHits {
		s.local.memoHits += int64(len(dst))
	}
	return dst
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
		var attrBound float64
		if s.loose {
			attrBound = c.AttrBoundLoose(sum, dim+1)
		} else {
			attrBound = c.AttrBoundRefined(sum, dim+1, s.rbarSuffix)
		}
		if !s.heap.WouldAccept(c.Combine(1, attrBound)) {
			// The list is sorted by similarity, so the attribute-only
			// bound never rises along it, and the top-k threshold never
			// falls: every later candidate fails too. Cut the level and
			// count what testing each of them would have pruned, which
			// skips the earlier tuple objects the tail still holds.
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
// (partition.Subspace.ACPoints holds every point of it, core points
// included), and the list is exactly the ac-subspace's points of that
// category. A pinned dimension's list holds only its own object and
// counts none.
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
