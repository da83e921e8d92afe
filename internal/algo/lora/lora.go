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
	// Parallelism spreads the search over this many workers sharing
	// one concurrent top-k. A stale pruning threshold only admits extra
	// candidates, so parallel LORA's results are never worse than
	// sequential LORA's — but the exact result set can vary between
	// runs. The unit of parallel work is smaller than a subspace:
	// prepared subspaces are split into chunks of their root cell list
	// that workers steal from a shared scheduler. <= 1 runs one worker,
	// on the calling goroutine; negative uses GOMAXPROCS.
	Parallelism int
	// Steal sizes the stolen root-cell chunks when more than one worker
	// runs (see sched.Tuning). The zero value auto-sizes.
	Steal sched.Tuning
	// Stats, when non-nil, collects per-search counters (subspaces,
	// cell tuples, rank-graph pops, sampling discards).
	Stats *stats.Stats
	// Span, when live, is the parent span the search nests its
	// hierarchical timeline under: "lora.partition", "lora.simprep" and
	// "lora.bound" children for the plan, then one "lora.sample" unit
	// span per subspace prep and one "lora.enum" unit span per enumerated
	// chunk, each tagged with both its worker lane and owning subspace
	// and carrying that unit's work-counter delta. The memo fill and
	// the bound pass carry theirs too, so the deltas sum to Stats but
	// for SubspacesBounded. Each point enumeration is a "lora.points"
	// Tally of its chunk's span: timed apart from the cell DFS, without
	// a tree node. Sequential searches run every unit on lane 0, one
	// chunk per searched subspace. The zero Span disables span tracing
	// at no cost.
	Span span.Span
}

// Search answers q approximately using ix, the partition index built
// over ds (partition.NewIndex).
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
	// lets several workers share one subspace's root cell list. Run
	// makes the workers on this goroutine, so they can be collected here
	// and released once it returns.
	var made [2]*searcher
	wks := made[:0]
	cut, err := sched.Run(&states, len(work), sched.Bounds{Of: bounds, Accept: sink.WouldAccept}, opt.Parallelism, 1, opt.Steal, func() sched.Worker[prepState] {
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

// states and searchers keep LORA's prepared states and searchers, with
// their buffers, from one query to the next.
var (
	states    sched.Pool[prepState]
	searchers sched.Pool[searcher]
)

// newSearcher takes a searcher from searchers and readies it for one
// query's search, its tuple-sized scratch sized to the query's m;
// release gives it back.
func newSearcher(ctx context.Context, sctx *simil.Context, sink *topk.Concurrent, q *query.Query, ix *partition.Index, work []*partition.Subspace, opt Options) *searcher {
	s := searchers.Get()
	s.ctx, s.sctx, s.heap, s.q, s.ix, s.work, s.opt, s.st = ctx, sctx, sink, q, ix, work, opt, opt.Stats
	m := sctx.M
	s.tuple = slices.Grow(s.tuple[:0], m)[:m]
	s.asims = slices.Grow(s.asims[:0], m)[:m]
	s.dist = slices.Grow(s.dist[:0], sctx.Pairs)
	s.cellTuple = slices.Grow(s.cellTuple[:0], m)[:m]
	s.simScratch = slices.Grow(s.simScratch[:0], m)[:m]
	s.listsBuf = slices.Grow(s.listsBuf[:0], m)[:m]
	return s
}

// release gives s back to searchers. It keeps only the buffers that
// hold nothing of the query, each rewritten before the next query reads
// it: the gather and scoring buffers, the enumeration scratch and the
// rank-graph enumerator, and the tuple assembly scratch. The list views
// into the last prep state are dropped.
func (s *searcher) release() {
	clear(s.listsBuf)
	*s = searcher{
		posBuf:     s.posBuf,
		simBuf:     s.simBuf,
		cellTuple:  s.cellTuple,
		simScratch: s.simScratch,
		listsBuf:   s.listsBuf,
		enum:       s.enum,
		tuple:      s.tuple,
		asims:      s.asims,
		dist:       s.dist,
	}
	searchers.Put(s)
}

// prepState is one subspace's prepared search state: the grid, the
// sampled (dimension, cell) buckets and the sorted cell lists with
// their Eq.-style suffix maxima, and how many similarities the prep
// read: its candidates and its pinned objects. sched.Run takes prep
// states from states, hands each from the preparing worker to the chunk
// workers (read-only during enumeration — grid MinDist/MaxDist are
// pure), and gives it back when the subspace's last chunk finishes; the
// next prep, of this query or a later one, sizes it to its m and grid
// (size) and regrows only the buckets that outgrow it.
type prepState struct {
	g          grid.Grid
	buckets    [][][]simil.Cand // [dim][cell] candidates, maximum first; sampled and sorted desc where reachable
	cellLists  [][]scoredCell   // [dim] non-empty cells sorted by score desc
	rbarSuffix []float64
	scored     int64
}

// size readies p for a query of m dimensions over a grid of nc cells:
// every bucket and cell list is emptied, the rest is rewritten by the
// prep.
func (p *prepState) size(m, nc int) {
	p.buckets = slices.Grow(p.buckets[:0], m)[:m]
	p.cellLists = slices.Grow(p.cellLists[:0], m)[:m]
	p.rbarSuffix = slices.Grow(p.rbarSuffix[:0], m+1)[:m+1]
	for d := range p.buckets {
		p.buckets[d] = slices.Grow(p.buckets[d][:0], nc)[:nc]
		for i := range p.buckets[d] {
			p.buckets[d][i] = p.buckets[d][i][:0]
		}
		p.cellLists[d] = p.cellLists[d][:0]
	}
}

type searcher struct {
	ctx  context.Context
	sctx *simil.Context
	heap *topk.Concurrent
	q    *query.Query
	ix   *partition.Index
	work []*partition.Subspace
	opt  Options
	st   *stats.Stats
	// delta is the current unit's work: the prep and the enumeration
	// hot loops count into its plain fields.
	delta stats.Snapshot
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

	// enumeration scratch, sized by newSearcher and reused across cell
	// tuples and queries
	cellTuple  []int
	simScratch [][]float64
	listsBuf   [][]simil.Cand
	enum       *rankgraph.Enumerator

	// tuple assembly scratch
	tuple []int32
	asims []float64
	dist  []float64
}

// attach points the enumeration at a prepared subspace's state.
func (s *searcher) attach(p *prepState) {
	s.g = &p.g
	s.buckets = p.buckets
	s.cellLists = p.cellLists
	s.rbarSuffix = p.rbarSuffix
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
// skipped. Its delta (candidate volume, sampling discards, skip marks,
// memo hits) goes to the "lora.sample" unit span and to the counters
// alike; enumeration counters come from Chunk.
func (s *searcher) Prep(p *prepState, w, sub int) (int, error) {
	sp := s.opt.Span.Unit("lora.sample", w, sub)
	s.delta = stats.Snapshot{}
	skip, err := s.prepareInto(p, s.work[sub])
	if err != nil {
		sp.End()
		return 0, err
	}
	if skip {
		s.delta.SubspacesSkipped = 1
	} else {
		s.delta.Subspaces = 1
	}
	s.delta.SubspaceCandidatesMax = s.delta.Candidates
	// Every similarity a prep reads comes from the memo when there is one.
	if s.sctx.MemoShared() {
		s.delta.AttrSimMemoHits = p.scored
	}
	sp.EndWork(s.delta)
	s.st.Add(s.delta)
	if skip {
		return 0, nil
	}
	return len(p.cellLists[0]), nil
}

// Chunk enumerates the root cell range [lo, hi) of subspace sub,
// prepared in p. The enumeration counts into s.delta, which goes to the
// "lora.enum" unit span, attributed to the owning subspace, and to the
// counters alike, so Tree.Skew keeps measuring per-lane busy time and
// the straggler attribution keeps naming the heaviest subspace. Its
// phase time is the cell DFS's own: the point enumerations nested in it
// are tallied as "lora.points".
func (s *searcher) Chunk(p *prepState, w, sub, lo, hi int) error {
	s.delta = stats.Snapshot{}
	s.chunk = s.opt.Span.Unit("lora.enum", w, sub)
	s.attach(p)
	err := s.cellDFS(0, 0, lo, hi)
	s.chunk.EndWork(s.delta)
	s.st.Add(s.delta)
	return err
}

// prepareInto buckets candidates per (dimension, cell), Point-Samples
// the buckets the cell DFS can reach, and builds the sorted cell lists
// and suffix maxima into p. It reports skip=true when a pinned object
// falls outside the subspace or some dimension has no candidate cell;
// dimensions past that one are not scored. Candidate and sampling
// counters accumulate into s.delta and p.scored; Prep reports them.
func (s *searcher) prepareInto(p *prepState, ss *partition.Subspace) (skip bool, err error) {
	c := s.sctx
	m := c.M
	if err := p.g.Reset(ss.AC, s.q.Params.GridD); err != nil {
		return false, err
	}
	g := &p.g
	p.scored = 0
	nc := g.NumCells()
	p.size(m, nc)

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
			p.scored++
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
		s.delta.Candidates += int64(len(pos))
		p.scored += int64(len(pos))
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
			if !s.opt.RandomSample && cd.Before(b[0]) {
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
				s.delta.SampledOut += int64(len(b) - xi)
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

// selectTop returns b's first xi candidates in the candidate order
// (simil.Cand.Before), sorted, in b's storage: it sorts xi of them and
// then inserts each later candidate that beats the last one kept.
// xi <= 0 keeps all.
func selectTop(b []simil.Cand, xi int) []simil.Cand {
	if xi <= 0 || len(b) <= xi {
		simil.SortCandidates(b)
		return b
	}
	head := b[:xi]
	simil.SortCandidates(head)
	for _, cd := range b[xi:] {
		if !cd.Before(head[xi-1]) {
			continue
		}
		i := xi - 1
		for ; i > 0 && cd.Before(head[i-1]); i-- {
			head[i] = head[i-1]
		}
		head[i] = cd
	}
	return head
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
			s.delta.PrunedCellPrefixes += int64(len(level) - i)
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
	s.delta.CellTuples++
	lists := s.listsBuf
	for d := 0; d < m; d++ {
		lists[d] = s.buckets[d][s.cellTuple[d]]
		if len(lists[d]) == 0 {
			return nil
		}
		sims := s.simScratch[d][:0]
		for _, cd := range lists[d] {
			//lint:ignore hotpathalloc appends into the searcher's simScratch buffer, which the pool keeps across queries; capacity is amortised across cell tuples
			sims = append(sims, cd.Sim)
		}
		s.simScratch[d] = sims
	}
	// Fast path: a cell tuple with exactly one combination (common in
	// sparse regions) needs no rank-graph machinery.
	single := true
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
		s.delta.RankPops++
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
	s.delta.Tuples++
	s.dist = c.DistVectorOfPositions(s.tuple, s.dist)
	if !c.NormOK(geo.Norm(s.dist)) {
		return false
	}
	if s.heap.Offer(s.tuple, c.TupleSim(s.dist, s.asims)) {
		s.delta.Offered++
	}
	return true
}

// singleRanks is the all-zero rank vector reused by the singleton fast
// path, long enough for any example Example.Validate accepts.
var singleRanks [query.MaxM]int32

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
