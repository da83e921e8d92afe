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
// no tuple is generated twice across subspaces, and the subspaces are
// bounded from the eager attribute memo before any is bucketed and
// visited best-first, stopping at the first whose bound cannot beat the
// k-th result (simil.Context.OrderByBound).
package lora

import (
	"context"
	"math"
	"runtime"
	"slices"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/grid"
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
	// Steal sizes the stolen root-cell chunks of the parallel path (see
	// sched.Tuning). The zero value auto-sizes.
	Steal sched.Tuning
	// Stats, when non-nil, collects per-search counters (subspaces,
	// cell tuples, rank-graph pops, sampling discards).
	Stats *stats.Stats
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under: "lora.partition", "lora.simprep" and
	// "lora.bound" children for the plan, then one "lora.sample" unit
	// span per subspace prep and one "lora.enum" unit span per enumerated chunk,
	// each tagged with both its worker lane and owning subspace and
	// carrying that unit's work-counter delta. Each point enumeration
	// is a "lora.points" Tally of its chunk's span: timed apart from
	// the cell DFS, without a tree node. Sequential searches run every
	// unit on lane 0, one chunk per searched subspace. The zero Span
	// disables span tracing at no cost.
	Span span.Span
}

// Search answers q approximately using ix, the partition index built
// over ds (partition.NewIndex).
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
	// lets several workers share one subspace's root cell list.
	cut, err := sched.Run(len(work), sched.Bounds{Of: bounds, Accept: sink.WouldAccept}, workers, 1, opt.Steal, func() sched.Worker[prepState] {
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

// planPhases names LORA's plan spans.
var planPhases = simil.PlanPhases{Partition: "lora.partition", Memo: "lora.simprep", Bound: "lora.bound"}

// plan returns the subspaces the search visits, best-first, with the
// bounds that stop it (simil.Context.Plan). Every cut LORA makes is a
// bound on the sampled space and its k-valid-pops rule is per cell
// tuple, so the order does not change its answers.
func plan(sctx *simil.Context, ix *partition.Index, opt Options) ([]*partition.Subspace, []float64, error) {
	return sctx.Plan(ix, simil.PlanSpec{Radius: sctx.PartitionRadius(), Ordered: true,
		Phases: planPhases, Span: opt.Span, Stats: opt.Stats})
}

func newSearcher(ctx context.Context, sctx *simil.Context, sink topk.Sink, q *query.Query, ix *partition.Index, work []*partition.Subspace, opt Options) *searcher {
	return &searcher{
		ctx:   ctx,
		sctx:  sctx,
		heap:  sink,
		q:     q,
		ix:    ix,
		work:  work,
		opt:   opt,
		st:    opt.Stats,
		tuple: make([]int32, sctx.M),
		asims: make([]float64, sctx.M),
		dist:  make([]float64, 0, sctx.Pairs),
	}
}

// localCounters batch per-subspace statistics so hot loops touch plain
// ints, not atomics.
type localCounters struct {
	candidates, sampledOut, cellTuples, prunedCells, pops, tuples, offered int64
	// scored counts the similarities a prep read: its candidates and
	// its pinned objects.
	scored int64
}

func (s *searcher) flushStats() {
	s.st.AddCandidates(s.local.candidates)
	s.st.AddSampledOut(s.local.sampledOut)
	s.st.AddCellTuples(s.local.cellTuples)
	s.st.AddPrunedCellPrefixes(s.local.prunedCells)
	s.st.AddRankPops(s.local.pops)
	s.st.AddTuples(s.local.tuples)
	s.st.AddOffered(s.local.offered)
	s.st.AddAttrSimMemoHits(s.memoHits())
	s.st.RaiseSubspaceCandidates(s.local.candidates)
	s.local = localCounters{}
}

// memoHits is how many of the similarities the batch read came from the
// memo: all of them when there is one.
func (s *searcher) memoHits() int64 {
	if s.sctx.MemoShared() {
		return s.local.scored
	}
	return 0
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
		AttrSimMemoHits:    s.memoHits(),
	}
}

// localSnapshot converts the current per-subspace counter batch into
// the work delta attached to the prep span; searched selects between
// the searched and skipped subspace count.
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
// their Eq.-style suffix maxima. sched.Run pools prep states, hands
// each from the preparing worker to the chunk workers (read-only during
// enumeration — grid MinDist/MaxDist are pure), and recycles it when
// the subspace's last chunk finishes.
type prepState struct {
	g          *grid.Grid
	buckets    [][][]simil.Cand // [dim][cell] candidates, maximum first; sampled and sorted desc where reachable
	cellLists  [][]scoredCell   // [dim] non-empty cells sorted by score desc
	rbarSuffix []float64
}

type searcher struct {
	ctx   context.Context
	sctx  *simil.Context
	heap  topk.Sink
	q     *query.Query
	ix    *partition.Index
	work  []*partition.Subspace
	opt   Options
	st    *stats.Stats
	local localCounters
	steps int
	// chunk is the current Chunk's "lora.enum" span, the parent of each
	// point enumeration's "lora.points" tally.
	chunk span.Span

	// g/buckets/cellLists/rbarSuffix are views of the prep state
	// attached for the current enumeration.
	g          *grid.Grid
	buckets    [][][]simil.Cand
	cellLists  [][]scoredCell
	rbarSuffix []float64

	// bucketing scratch: one dimension's gathered candidates and their
	// blocked attribute sims
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

// Prep buckets and samples subspace sub into p — exactly once per
// subspace — and returns its root cell count, 0 when the subspace is
// skipped. The "lora.sample" unit span carries the subspace-level work
// delta (candidate volume, sampling discards, skip marks, memo hits);
// enumeration counters land on Chunk's spans.
func (s *searcher) Prep(p *prepState, w, sub int) (int, error) {
	sp := s.opt.Span.Unit("lora.sample", w, sub)
	skip, err := s.prepareInto(p, s.work[sub])
	if err != nil {
		sp.End()
		return 0, err
	}
	if skip {
		s.st.AddSubspacesSkipped(1)
		sp.EndWork(s.localSnapshot(false))
		s.flushStats()
		return 0, nil
	}
	s.st.AddSubspaces(1)
	sp.EndWork(s.localSnapshot(true))
	s.flushStats()
	return len(p.cellLists[0]), nil
}

// Chunk enumerates the root cell range [lo, hi) of subspace sub,
// prepared in p. The "lora.enum" unit span carries the enumeration
// work delta, attributed to the owning subspace, so Tree.Skew keeps
// measuring per-lane busy time and the straggler attribution keeps
// naming the heaviest subspace. Its phase time is the cell DFS's own:
// the point enumerations nested in it are tallied as "lora.points".
func (s *searcher) Chunk(p *prepState, w, sub, lo, hi int) error {
	s.chunk = s.opt.Span.Unit("lora.enum", w, sub)
	s.attach(p)
	err := s.cellDFS(0, 0, lo, hi)
	s.chunk.EndWork(s.localDelta())
	s.flushStats()
	return err
}

// prepareInto buckets candidates per (dimension, cell), Point-Samples
// the buckets the cell DFS can reach, and builds the sorted cell lists
// and suffix maxima into p. It reports skip=true when a pinned object
// falls outside the subspace or some dimension has no candidate cell;
// dimensions past that one are not scored. Candidate and sampling
// counters accumulate into s.local; the caller attaches and flushes them.
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

	xi := s.q.Params.Xi
	for d := 0; d < m; d++ {
		region := ss.AC
		if d == 0 {
			region = ss.Core
		}
		if fixed := s.q.Example.FixedDim(d); fixed >= 0 {
			loc := c.DS.Loc(int(fixed))
			if !region.Contains(loc) {
				return true, nil // subspace cannot host the pinned object
			}
			cell := g.Cell(loc)
			s.local.scored++
			p.buckets[d][cell] = append(p.buckets[d][cell], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: p.buckets[d][cell][0].Sim})
			continue
		}
		pos := s.ix.Gather(s.posBuf[:0], c.Ex.Categories[d], region)
		s.posBuf = pos
		// Blocked batch scoring: score the candidates with one
		// AttrSimBatch sweep, then bucket by cell, each bucket's maximum
		// first. Same candidate order, sims and counters as the scalar
		// loop.
		s.local.candidates += int64(len(pos))
		s.local.scored += int64(len(pos))
		if cap(s.simBuf) < len(pos) {
			s.simBuf = make([]float64, len(pos))
		}
		sims := s.simBuf[:len(pos)]
		c.AttrSimBatch(d, pos, sims)
		buckets := p.buckets[d]
		for i, ps := range pos {
			cell := g.Cell(c.DS.Loc(int(ps)))
			cd := simil.Cand{Pos: ps, Sim: sims[i]}
			b := append(buckets[cell], cd)
			if !s.opt.RandomSample && candBefore(cd, b[0]) {
				b[0], b[len(b)-1] = cd, b[0]
			}
			buckets[cell] = b
		}
		for cell := 0; cell < nc; cell++ {
			b := buckets[cell]
			if len(b) == 0 {
				continue
			}
			if xi > 0 && len(b) > xi {
				s.local.sampledOut += int64(len(b) - xi)
			}
			if s.opt.RandomSample {
				b = s.sampleRandom(b, d, cell)
				buckets[cell] = b
			}
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: b[0].Sim})
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
	if !s.opt.RandomSample {
		s.sampleReachable(p)
	}
	return false, nil
}

// sampleReachable applies Point-Sample (Algorithm 6) to the buckets the
// cell DFS can reach: each keeps its top xi, sorted. A cell is reachable
// when Algorithm 4's bound on it, taken at the float sum of the earlier
// dimensions' list heads (added in cellDFS's order), passes the
// threshold the sink holds now. The bound never rises as the cell's
// score or the prefix sum falls, float addition preserves order, and
// the threshold never falls, so cellDFS cuts each level at or before
// its first unreachable cell and pointEnum never reads such a bucket.
// It stays as bucketed, its maximum first; prepareInto has already
// counted what sampling drops from it.
func (s *searcher) sampleReachable(p *prepState) {
	c := s.sctx
	var prefix float64
	for d := 0; d < c.M; d++ {
		for _, sc := range p.cellLists[d] {
			if !s.heap.WouldAccept(c.Combine(1, (prefix+sc.score+p.rbarSuffix[d+1])/float64(c.M))) {
				break // the list is sorted by score: every later cell fails too
			}
			p.buckets[d][sc.cell] = selectTop(p.buckets[d][sc.cell], s.q.Params.Xi)
		}
		prefix += p.cellLists[d][0].score
	}
}

// selectTop returns b's first xi candidates under SortCandidates' order,
// sorted, in b's storage: it sorts xi of them and then inserts each
// later candidate that beats the last one kept. xi <= 0 keeps all.
func selectTop(b []simil.Cand, xi int) []simil.Cand {
	if xi <= 0 || len(b) <= xi {
		simil.SortCandidates(b)
		return b
	}
	head := b[:xi]
	simil.SortCandidates(head)
	for _, cd := range b[xi:] {
		if !candBefore(cd, head[xi-1]) {
			continue
		}
		i := xi - 1
		for ; i > 0 && candBefore(cd, head[i-1]); i-- {
			head[i] = head[i-1]
		}
		head[i] = cd
	}
	return head
}

// candBefore reports whether a precedes b in SortCandidates' order:
// similarity descending, position ascending.
func candBefore(a, b simil.Cand) bool {
	switch {
	case a.Sim > b.Sim:
		return true
	case a.Sim < b.Sim:
		return false
	}
	return a.Pos < b.Pos
}

// sampleRandom is Point-Sample's RandomSample ablation (the Fig. 4
// strawman): a bucket larger than xi keeps a seeded random subset of xi
// in place of its top xi. The kept set is sorted descending so
// downstream ordering invariants hold.
func (s *searcher) sampleRandom(b []simil.Cand, dim, cell int) []simil.Cand {
	xi := s.q.Params.Xi
	if xi > 0 && len(b) > xi {
		rng := newSplitMix(uint64(s.opt.RandomSeed) ^ uint64(dim)<<32 ^ uint64(cell))
		for i := len(b) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			b[i], b[j] = b[j], b[i]
		}
		b = b[:xi]
	}
	simil.SortCandidates(b)
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
	defer s.chunk.Tally("lora.points").End()
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
