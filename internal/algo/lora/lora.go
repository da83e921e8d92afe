// Package lora implements LORA (LOcal Representative Approximation), the
// paper's approximate algorithm (Section III-C/D).
//
// Per ac-subspace, LORA imposes a D x D grid, groups same-category points
// per cell, keeps only the top-xi points of each (cell, dimension) bucket
// by attribute similarity to the example (query-dependent sampling,
// Algorithm 6), and then enumerates in two phases:
//
//   - Cell-Tuple-Enum (Algorithm 4): DFS over per-dimension cell lists
//     sorted by maximum bucket similarity, pruning cell tuples whose
//     upper bound alpha*1 + (1-alpha)*Vbar cannot beat the current k-th
//     result;
//   - Point-Tuple-Enum (Algorithm 5): best-first traversal of the
//     rank-representation graph, popping the cell tuple's point tuples in
//     descending attribute-similarity order (Lemma 2), applying the
//     beta-norm check, scoring survivors against the global top-k and
//     stopping once no future pop can help or k valid tuples were popped
//     (per-subspace top-k sufficiency, observation 2).
//
// Like HSP, dimension-0 candidates are restricted to the core subspace so
// no tuple is generated twice across subspaces.
package lora

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/grid"
	"spatialseq/internal/obs"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/rankgraph"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// Options tune implementation details; the zero value is the paper's LORA.
type Options struct {
	// RandomSample replaces query-dependent sampling with seeded random
	// sampling (the strawman of Fig. 4, for the A2 ablation).
	RandomSample bool
	// RandomSeed drives RandomSample.
	RandomSeed int64
	// PruneCellNorm enables the cell-level beta-norm feasibility filter
	// using min/max inter-cell distances (A3 ablation; off in the
	// paper's plain LORA).
	PruneCellNorm bool
	// Parallelism spreads the search over this many goroutines sharing
	// one concurrent top-k. A stale pruning threshold only admits extra
	// candidates, so parallel LORA's results are never worse than
	// sequential LORA's — but the exact result set can vary between
	// runs. The unit of parallel work is smaller than a subspace:
	// prepared subspaces are split into chunks of their root cell list
	// that workers steal from a shared scheduler. <= 1 searches
	// sequentially; negative uses GOMAXPROCS.
	Parallelism int
	// Steal tunes the work-unit scheduler of the parallel path (chunk
	// sizing of the stolen root-cell ranges). The zero value auto-sizes.
	Steal sched.Tuning
	// Own, when non-nil, restricts the search to the subspaces whose core
	// rectangle it claims; see hsp.Options.Own. Lemma 1's exactly-once
	// discipline makes the union over a disjoint claim set equal the
	// unfiltered search (up to LORA's usual sampling approximation).
	Own func(core geo.Rect) bool
	// Sink, when non-nil, replaces the internally allocated top-k
	// collector. It must be safe for concurrent use when Parallelism > 1.
	Sink topk.ResultSink
	// Stats, when non-nil, collects per-search counters (subspaces,
	// cell tuples, rank-graph pops, sampling discards).
	Stats *stats.Stats
	// Trace, when non-nil, records per-phase wall time (partitioning,
	// bucketing/sampling, cell enumeration, rank-graph point
	// enumeration, top-k merge). With Parallelism > 1 the phase times
	// sum across workers and can exceed wall time.
	Trace *obs.Trace
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under. The sequential path opens one worker
	// lane with a subspace span per searched subspace; the parallel path
	// opens one "lora.prep" / "lora.chunk" unit span per stolen work
	// unit, each tagged with both its worker lane and owning subspace
	// and carrying that unit's work-counter delta. The zero Span
	// disables span tracing at no cost.
	Span span.Span
}

// Search answers q approximately using the prebuilt partition index ix.
func Search(ctx context.Context, ds *dataset.Dataset, ix *partition.Index, q *query.Query, opt Options) ([]topk.Entry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sctx := simil.NewContext(ds, q)
	radius := sctx.PartitionRadius()
	sp := opt.Trace.Start("lora.partition")
	psp := opt.Span.Child("lora.partition")
	part, err := ix.PartitionBucketed(radius)
	psp.End()
	sp.End()
	if err != nil {
		return nil, err
	}
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
	// lets several workers share one subspace's root cell list.
	// Overlapping ac-subspaces re-bucket the same (dimension, object)
	// pairs; memoize the attribute cosines across them — lazily when
	// sequential, eagerly (read-only) when subspace workers share the
	// Context. One subspace means no reuse, so skip the table.
	if len(work) > 1 {
		sp = opt.Trace.Start("lora.simprep")
		ssp := opt.Span.Child("lora.simprep")
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
		s := newSearcher(ctx, sctx, heap, q, opt)
		ws := opt.Span.Worker("lora.worker", 0)
		for i, ss := range work {
			sub := ws.Subspace("lora.subspace", i)
			if err := s.searchSubspace(ss, sub); err != nil {
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
	run := &stealRun{
		sch:   sched.New(len(work), workers, opt.Steal),
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
			s := newSearcher(ctx, sctx, sink, q, opt)
			for {
				u, ok := run.sch.Acquire()
				if !ok {
					return
				}
				var err error
				if u.Prep {
					err = s.prepUnit(run, u.Sub, w, opt.Span)
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

func newSearcher(ctx context.Context, sctx *simil.Context, sink topk.Sink, q *query.Query, opt Options) *searcher {
	return &searcher{
		ctx:  ctx,
		sctx: sctx,
		heap: sink,
		q:    q,
		opt:  opt,
		// With a shared (eagerly filled) memo the Context counts nothing;
		// each worker tallies its own hits in the local batch instead.
		countHits: sctx.MemoShared(),
		st:        opt.Stats,
		tr:        opt.Trace,
		tuple:     make([]int32, sctx.M),
		asims:     make([]float64, sctx.M),
		dist:      make([]float64, 0, sctx.Pairs),
	}
}

// localCounters batch per-subspace statistics so hot loops touch plain
// ints, not atomics.
type localCounters struct {
	candidates, sampledOut, cellTuples, prunedCells, pops, tuples, offered, memoHits int64
}

func (s *searcher) flushStats() {
	s.st.AddCandidates(s.local.candidates)
	s.st.AddSampledOut(s.local.sampledOut)
	s.st.AddCellTuples(s.local.cellTuples)
	s.st.AddPrunedCellPrefixes(s.local.prunedCells)
	s.st.AddRankPops(s.local.pops)
	s.st.AddTuples(s.local.tuples)
	s.st.AddOffered(s.local.offered)
	s.st.AddAttrSimMemoHits(s.local.memoHits)
	s.st.RaiseSubspaceCandidates(s.local.candidates)
	s.local = localCounters{}
}

// localDelta converts the current counter batch into a plain work
// snapshot — the delta attached to chunk spans, which carry enumeration
// work but no subspace marks.
func (s *searcher) localDelta() stats.Snapshot {
	return stats.Snapshot{
		Candidates:         s.local.candidates,
		SampledOut:         s.local.sampledOut,
		CellTuples:         s.local.cellTuples,
		PrunedCellPrefixes: s.local.prunedCells,
		RankPops:           s.local.pops,
		Tuples:             s.local.tuples,
		Offered:            s.local.offered,
		AttrSimMemoHits:    s.local.memoHits,
	}
}

// localSnapshot converts the current per-subspace counter batch into
// the work delta attached to the subspace (or prep) span; searched
// selects between the searched and skipped subspace count.
func (s *searcher) localSnapshot(searched bool) stats.Snapshot {
	snap := s.localDelta()
	snap.SubspaceCandidatesMax = s.local.candidates
	if searched {
		snap.Subspaces = 1
	} else {
		snap.SubspacesSkipped = 1
	}
	return snap
}

// prepState is one subspace's prepared search state: the grid, the
// sampled (dimension, cell) buckets and the sorted cell lists with
// their Eq.-style suffix maxima. On the sequential path each searcher
// owns one and reuses it across subspaces; on the stealing path prep
// states are pooled, handed from the preparing worker to chunk workers
// (read-only during enumeration — grid MinDist/MaxDist are pure), and
// recycled when the subspace's last chunk finishes.
type prepState struct {
	g          *grid.Grid
	buckets    [][][]simil.Cand // [dim][cell] sampled candidates, sorted desc
	cellLists  [][]scoredCell   // [dim] non-empty cells sorted by score desc
	rbarSuffix []float64
}

type searcher struct {
	ctx       context.Context
	sctx      *simil.Context
	heap      topk.Sink
	q         *query.Query
	opt       Options
	countHits bool
	st        *stats.Stats
	tr        *obs.Trace
	local     localCounters
	steps     int
	// pointDur accumulates time spent in pointEnum during the current
	// cellDFS, so the cell- and point-level phases report disjointly.
	pointDur time.Duration

	// own is the sequential path's reusable prep state; g/buckets/
	// cellLists/rbarSuffix are views of whichever prep state is attached
	// for the current enumeration.
	own        *prepState
	g          *grid.Grid
	buckets    [][][]simil.Cand
	cellLists  [][]scoredCell
	rbarSuffix []float64

	// batch scoring scratch for bucketing (category-filtered positions
	// and their blocked attribute sims)
	posBuf []int32
	simBuf []float64

	// enumeration scratch (per-searcher, reused across cell tuples)
	cellTuple  []int
	simScratch [][]float64
	listsBuf   [][]simil.Cand
	enum       *rankgraph.Enumerator

	// tuple assembly scratch
	tuple []int32
	asims []float64
	dist  []float64
}

// attach points the enumeration at a prepared subspace's state and
// lazily sizes the per-searcher enumeration scratch.
func (s *searcher) attach(p *prepState) {
	s.g = p.g
	s.buckets = p.buckets
	s.cellLists = p.cellLists
	s.rbarSuffix = p.rbarSuffix
	if s.cellTuple == nil {
		m := s.sctx.M
		s.cellTuple = make([]int, m)
		s.simScratch = make([][]float64, m)
	}
}

type scoredCell struct {
	cell  int
	score float64
}

// sortScoredCells orders cells by score descending, index ascending.
func sortScoredCells(cs []scoredCell) {
	slices.SortFunc(cs, func(a, b scoredCell) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		default:
			return a.cell - b.cell
		}
	})
}

const checkEvery = 1024

func (s *searcher) checkCancel() error {
	if s.steps++; s.steps%checkEvery == 0 {
		select {
		case <-s.ctx.Done():
			return s.ctx.Err()
		default:
		}
	}
	return nil
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

// prepUnit buckets and samples one subspace — exactly once per
// subspace — and publishes its root cell list to the scheduler as
// steal-able chunks. The prep span carries the subspace-level work
// delta (candidate volume, sampling discards, skip marks, memo hits);
// enumeration counters land on the chunk spans.
func (s *searcher) prepUnit(run *stealRun, sub, w int, parent span.Span) error {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	p := run.take()
	sp := parent.Unit("lora.prep", w, sub)
	skip, err := s.prepareInto(p, run.work[sub])
	if err != nil {
		sp.End()
		run.sch.Publish(sub, 0)
		run.put(p)
		return err
	}
	if s.tr != nil {
		s.tr.Add("lora.sample", time.Since(t0))
	}
	if skip {
		s.st.AddSubspacesSkipped(1)
		sp.EndWork(s.localSnapshot(false))
		s.flushStats()
		run.sch.Publish(sub, 0)
		run.put(p)
		return nil
	}
	s.st.AddSubspaces(1)
	sp.EndWork(s.localSnapshot(true))
	s.flushStats()
	run.preps[sub] = p
	if run.sch.Publish(sub, len(p.cellLists[0])) == 0 {
		// Aborted before any chunk was queued: no Done will follow, so
		// reclaim the prepared state here.
		run.preps[sub] = nil
		run.put(p)
	}
	return nil
}

// chunkUnit enumerates one stolen chunk: the root cell range [u.Lo,
// u.Hi) of an already-prepared subspace. The chunk span carries the
// enumeration work delta, attributed to the owning subspace, so
// Tree.Skew keeps measuring per-lane busy time and the straggler
// attribution keeps naming the heaviest subspace.
func (s *searcher) chunkUnit(run *stealRun, u sched.Unit, w int, parent span.Span) error {
	p := run.preps[u.Sub]
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	sp := parent.Unit("lora.chunk", w, u.Sub)
	s.attach(p)
	s.pointDur = 0
	err := s.cellDFS(0, 0, u.Lo, u.Hi)
	if s.tr != nil {
		s.tr.Add("lora.points", s.pointDur)
		s.tr.Add("lora.cells", time.Since(t0)-s.pointDur)
	}
	sp.EndWork(s.localDelta())
	s.flushStats()
	if run.sch.Done(u.Sub) {
		run.preps[u.Sub] = nil
		run.put(p)
	}
	return err
}

// prepareInto buckets candidates per (dimension, cell), Point-Samples
// each bucket, and builds the sorted cell lists and suffix maxima into
// p. It reports skip=true when a pinned object falls outside the
// subspace or some dimension has no candidate cell. Candidate and
// sampling counters accumulate into s.local; the caller attaches and
// flushes them.
func (s *searcher) prepareInto(p *prepState, ss *partition.Subspace) (skip bool, err error) {
	c := s.sctx
	m := c.M
	g, err := grid.New(ss.AC, s.q.Params.GridD)
	if err != nil {
		return false, err
	}
	p.g = g
	nc := g.NumCells()
	if p.buckets == nil {
		p.buckets = make([][][]simil.Cand, m)
		p.cellLists = make([][]scoredCell, m)
		p.rbarSuffix = make([]float64, m+1)
	}
	for d := 0; d < m; d++ {
		if p.buckets[d] == nil || len(p.buckets[d]) < nc {
			p.buckets[d] = make([][]simil.Cand, nc)
		}
		for i := 0; i < nc; i++ {
			p.buckets[d][i] = p.buckets[d][i][:0]
		}
		p.cellLists[d] = p.cellLists[d][:0]
	}

	for d := 0; d < m; d++ {
		if fixed := s.q.Example.FixedDim(d); fixed >= 0 {
			loc := c.DS.Loc(int(fixed))
			region := ss.AC
			if d == 0 {
				region = ss.Core
			}
			if !region.Contains(loc) {
				return true, nil // subspace cannot host the pinned object
			}
			cell := g.Cell(loc)
			if s.countHits {
				s.local.memoHits++
			}
			p.buckets[d][cell] = append(p.buckets[d][cell], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: p.buckets[d][cell][0].Sim})
			continue
		}
		source := ss.ACPoints
		if d == 0 {
			source = ss.CorePoints
		}
		// Blocked batch scoring: gather the category survivors, score
		// them with one AttrSimBatch sweep, then bucket by cell. Same
		// candidate order, sims and counters as the scalar loop.
		cat := c.Ex.Categories[d]
		pos := s.posBuf[:0]
		for _, ps := range source {
			if c.DS.Category(int(ps)) == cat {
				pos = append(pos, ps)
			}
		}
		s.posBuf = pos
		s.local.candidates += int64(len(pos))
		if s.countHits {
			s.local.memoHits += int64(len(pos))
		}
		if cap(s.simBuf) < len(pos) {
			s.simBuf = make([]float64, len(pos))
		}
		sims := s.simBuf[:len(pos)]
		c.AttrSimBatch(d, pos, sims)
		for i, ps := range pos {
			cell := g.Cell(c.DS.Loc(int(ps)))
			p.buckets[d][cell] = append(p.buckets[d][cell], simil.Cand{Pos: ps, Sim: sims[i]})
		}
		for cell := 0; cell < nc; cell++ {
			b := p.buckets[d][cell]
			if len(b) == 0 {
				continue
			}
			before := len(b)
			p.buckets[d][cell] = s.sampleBucket(b, d, cell)
			s.local.sampledOut += int64(before - len(p.buckets[d][cell]))
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: p.buckets[d][cell][0].Sim})
		}
		if len(p.cellLists[d]) == 0 {
			return true, nil // no candidates for this dimension here
		}
	}
	for d := 0; d < m; d++ {
		sortScoredCells(p.cellLists[d])
	}
	p.rbarSuffix[m] = 0
	for d := m - 1; d >= 0; d-- {
		p.rbarSuffix[d] = p.rbarSuffix[d+1] + p.cellLists[d][0].score
	}
	return false, nil
}

// searchSubspace buckets, samples, and enumerates one subspace — the
// sequential path, where prep and enumeration stay on one goroutine.
// The sub span (a no-op when span tracing is off) is closed on every
// return path, carrying this subspace's work-counter delta.
func (s *searcher) searchSubspace(ss *partition.Subspace, sub span.Span) error {
	var t0 time.Time
	if s.tr != nil {
		t0 = time.Now()
	}
	smp := sub.Child("lora.sample")
	if s.own == nil {
		s.own = new(prepState)
	}
	skip, err := s.prepareInto(s.own, ss)
	if err != nil {
		smp.End()
		sub.End()
		return err
	}
	if s.tr != nil {
		s.tr.Add("lora.sample", time.Since(t0))
		t0 = time.Now()
	}
	smp.End()
	if skip {
		s.st.AddSubspacesSkipped(1)
		sub.EndWork(s.localSnapshot(false))
		s.flushStats()
		return nil
	}
	s.attach(s.own)
	s.st.AddSubspaces(1)
	s.pointDur = 0
	esp := sub.Child("lora.enum")
	err = s.cellDFS(0, 0, 0, len(s.cellLists[0]))
	esp.End()
	if s.tr != nil {
		// pointEnum time is carved out of the enumeration window so the
		// cell- and point-level phases stay disjoint.
		s.tr.Add("lora.points", s.pointDur)
		s.tr.Add("lora.cells", time.Since(t0)-s.pointDur)
	}
	sub.EndWork(s.localSnapshot(true))
	s.flushStats()
	return err
}

// sampleBucket applies Point-Sample (Algorithm 6): sort descending by
// attribute similarity and keep the first xi. With RandomSample the kept
// set is a seeded random subset instead (the Fig. 4 strawman), re-sorted
// descending so downstream ordering invariants hold.
func (s *searcher) sampleBucket(b []simil.Cand, dim, cell int) []simil.Cand {
	xi := s.q.Params.Xi
	if s.opt.RandomSample && xi > 0 && len(b) > xi {
		rng := newSplitMix(uint64(s.opt.RandomSeed) ^ uint64(dim)<<32 ^ uint64(cell))
		for i := len(b) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			b[i], b[j] = b[j], b[i]
		}
		b = b[:xi]
	}
	simil.SortCandidates(b)
	if xi > 0 && len(b) > xi {
		b = b[:xi]
	}
	return b
}

// cellDFS is Cell-Tuple-Enum (Algorithm 4), restricted at this level to
// the cell-list index range [lo, hi) — the stealing path hands
// different root ranges of one subspace to different workers; recursion
// always descends over the next dimension's full list.
//
//seq:hotpath
func (s *searcher) cellDFS(dim int, scoreSum float64, lo, hi int) error {
	c := s.sctx
	level := s.cellLists[dim][lo:hi]
	for i, sc := range level {
		if err := s.checkCancel(); err != nil {
			return err
		}
		sum := scoreSum + sc.score
		// Algorithm 4: spatial similarity is bounded by 1 at the cell
		// level; a failing bound prunes the cell's subtree. The list is
		// sorted by score, so the bound never rises along it, and the
		// top-k threshold never falls: every later cell fails too. Cut
		// the level and count each of them as pruned.
		vbar := (sum + s.rbarSuffix[dim+1]) / float64(c.M)
		if !s.heap.WouldAccept(c.Combine(1, vbar)) {
			s.local.prunedCells += int64(len(level) - i)
			break
		}
		s.cellTuple[dim] = sc.cell
		if s.opt.PruneCellNorm && !s.cellPrefixFeasible(dim) {
			continue
		}
		if dim+1 == c.M {
			if err := s.pointEnum(); err != nil {
				return err
			}
		} else {
			if err := s.cellDFS(dim+1, sum, 0, len(s.cellLists[dim+1])); err != nil {
				return err
			}
		}
	}
	return nil
}

// cellPrefixFeasible checks the optional beta-norm feasibility of the cell
// prefix ending at dim: if even the minimal pairwise distances already
// exceed beta*||V_t*||, or (at full depth) the maximal distances cannot
// reach ||V_t*||/beta, no point tuple inside can satisfy the constraint.
//
//seq:hotpath
func (s *searcher) cellPrefixFeasible(dim int) bool {
	c := s.sctx
	if math.IsInf(c.Beta, 1) {
		return true
	}
	if c.Metric != nil && !c.Metric.DominatesEuclidean() {
		// Euclidean cell gaps do not lower-bound such a metric.
		return true
	}
	limit := c.Beta * c.Norm
	var minSq float64
	for i := 0; i <= dim; i++ {
		for j := 0; j < i; j++ {
			if c.Active != nil && !c.Active[geo.PairIndex(j, i)] {
				continue
			}
			d := s.g.MinDist(s.cellTuple[i], s.cellTuple[j])
			minSq += d * d
		}
	}
	if minSq > limit*limit {
		return false
	}
	if dim+1 == c.M && c.Norm > 0 && c.Metric == nil {
		// the max-side check needs an upper bound on distances, which
		// Euclidean cell geometry only provides for the Euclidean metric
		var maxSq float64
		for i := 0; i <= dim; i++ {
			for j := 0; j < i; j++ {
				if c.Active != nil && !c.Active[geo.PairIndex(j, i)] {
					continue
				}
				d := s.g.MaxDist(s.cellTuple[i], s.cellTuple[j])
				maxSq += d * d
			}
		}
		lower := c.Norm / c.Beta
		if maxSq < lower*lower {
			return false
		}
	}
	return true
}

// pointEnum is Point-Tuple-Enum (Algorithm 5) for the current cell tuple.
//
//seq:hotpath
func (s *searcher) pointEnum() error {
	if s.tr != nil {
		t0 := time.Now()
		//lint:ignore hotpathalloc tracing-only branch, gated on s.tr != nil; production searches never reach it
		defer func() { s.pointDur += time.Since(t0) }()
	}
	c := s.sctx
	m := c.M
	s.local.cellTuples++
	if s.listsBuf == nil {
		//lint:ignore hotpathalloc grow-once per-searcher buffer; reused across every cell tuple
		s.listsBuf = make([][]simil.Cand, m)
	}
	lists := s.listsBuf
	for d := 0; d < m; d++ {
		lists[d] = s.buckets[d][s.cellTuple[d]]
		if len(lists[d]) == 0 {
			return nil
		}
		sims := s.simScratch[d][:0]
		for _, cd := range lists[d] {
			//lint:ignore hotpathalloc appends into the reused simScratch buffer; capacity is amortised across cell tuples
			sims = append(sims, cd.Sim)
		}
		s.simScratch[d] = sims
	}
	// Fast path: a cell tuple with exactly one combination (common in
	// sparse regions) needs no rank-graph machinery.
	single := m <= len(singleRanks)
	for d := 0; single && d < m; d++ {
		if len(lists[d]) != 1 {
			single = false
		}
	}
	if single {
		var total float64
		for d := 0; d < m; d++ {
			total += lists[d][0].Sim
		}
		if s.heap.WouldAccept(c.Combine(1, total/float64(m))) {
			s.assembleTuple(lists, singleRanks[:m])
		}
		return nil
	}

	if s.enum == nil {
		s.enum = rankgraph.New(s.simScratch[:m])
	} else {
		s.enum.Reset(s.simScratch[:m])
	}
	en := s.enum
	validPops := 0
	k := s.heap.K()
	for {
		if err := s.checkCancel(); err != nil {
			return err
		}
		ranks, total, ok := en.Next()
		if !ok {
			return nil
		}
		s.local.pops++
		attrMean := total / float64(m)
		// Future pops have lower attribute totals; once even a perfect
		// spatial similarity cannot beat the k-th result, stop.
		if !s.heap.WouldAccept(c.Combine(1, attrMean)) {
			return nil
		}
		if s.assembleTuple(lists, ranks) {
			validPops++
			if validPops >= k {
				// Observation 2: the per-subspace (here per cell tuple)
				// top-k by attribute similarity suffices.
				return nil
			}
		}
	}
}

// assembleTuple materialises the popped rank vector, applies the duplicate
// and beta-norm checks, and offers the tuple to the global top-k. It
// reports whether the tuple was valid (passed the checks).
//
//seq:hotpath
func (s *searcher) assembleTuple(lists [][]simil.Cand, ranks []int32) bool {
	c := s.sctx
	m := c.M
	for d := 0; d < m; d++ {
		cd := lists[d][ranks[d]]
		s.tuple[d] = cd.Pos
		s.asims[d] = cd.Sim
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if s.tuple[i] == s.tuple[j] {
				return false
			}
		}
	}
	s.local.tuples++
	s.dist = c.DistVectorOfPositions(s.tuple, s.dist)
	if !c.NormOK(geo.Norm(s.dist)) {
		return false
	}
	if s.heap.Offer(s.tuple, c.TupleSim(s.dist, s.asims)) {
		s.local.offered++
	}
	return true
}

// singleRanks is the all-zero rank vector reused by the singleton fast
// path (the maximum tuple size is small; 16 is far beyond any practical m).
var singleRanks [16]int32

// splitMix is a tiny deterministic PRNG for the RandomSample ablation.
type splitMix uint64

func newSplitMix(seed uint64) *splitMix {
	s := splitMix(seed)
	return &s
}

func (s *splitMix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
