package lora

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// prepareFullSort is the prep LORA ran before the region gather and
// reachable-only sampling: each dimension scans its category for the
// objects its region holds, and every bucket is sorted in full and cut
// to its top xi (with RandomSample: shuffled, cut and sorted). The scan
// runs over the category in the index's path order, the order Search
// gathers in, which RandomSample's shuffle follows.
func (s *searcher) prepareFullSort(p *prepState, ss *partition.Subspace) (skip bool, err error) {
	c := s.sctx
	m := c.M
	if err := p.g.Reset(ss.AC, s.q.Params.GridD); err != nil {
		return false, err
	}
	g := &p.g
	p.scored = 0
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
		region := ss.AC
		if d == 0 {
			region = ss.Core
		}
		if fixed := s.q.Example.FixedDim(d); fixed >= 0 {
			loc := c.DS.Loc(int(fixed))
			if !region.Contains(loc) {
				return true, nil
			}
			cell := g.Cell(loc)
			p.scored++
			p.buckets[d][cell] = append(p.buckets[d][cell], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: p.buckets[d][cell][0].Sim})
			continue
		}
		cat := c.Ex.Categories[d]
		pos := testutil.InRegion(c.DS, s.ix.Gather(nil, cat, c.DS.Bounds()), cat, region)
		s.delta.Candidates += int64(len(pos))
		p.scored += int64(len(pos))
		sims := make([]float64, len(pos))
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
			if s.opt.RandomSample {
				b = s.sampleRandom(b, d, cell)
			} else {
				simil.SortCandidates(b)
				if xi := s.q.Params.Xi; xi > 0 && len(b) > xi {
					b = b[:xi]
				}
			}
			p.buckets[d][cell] = b
			s.delta.SampledOut += int64(before - len(b))
			p.cellLists[d] = append(p.cellLists[d], scoredCell{cell: cell, score: b[0].Sim})
		}
		if len(p.cellLists[d]) == 0 {
			return true, nil
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

// fullSortWorker is the searcher with prepareFullSort in Prep's place.
// It records each subspace's prep delta in subs as Search's
// "lora.sample" span carries it: every similarity a prep reads is a
// memo hit when the plan filled the memo.
type fullSortWorker struct {
	*searcher
	subs []stats.Snapshot
}

func (w fullSortWorker) Prep(p *prepState, _, sub int) (int, error) {
	w.delta = stats.Snapshot{}
	skip, err := w.prepareFullSort(p, w.work[sub])
	if err != nil {
		return 0, err
	}
	d := stats.Snapshot{Candidates: w.delta.Candidates, SampledOut: w.delta.SampledOut, SubspaceCandidatesMax: w.delta.Candidates}
	if w.sctx.MemoShared() {
		d.AttrSimMemoHits = p.scored
	}
	if skip {
		d.SubspacesSkipped = 1
	} else {
		d.Subspaces = 1
	}
	w.subs[sub] = d
	w.st.Add(d)
	if skip {
		return 0, nil
	}
	return len(p.cellLists[0]), nil
}

// searchFullSort is Search with prepareFullSort as the prep, on one
// worker. It returns the answers, every counter Search reports, and
// each planned subspace's prep delta: after the run it also prepares
// the subspaces the stop cut, for the table only.
func searchFullSort(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) ([]topk.Entry, stats.Snapshot, testutil.PrepReference) {
	t.Helper()
	sctx := simil.NewContext(ds, q)
	opt.Stats = &stats.Stats{}
	ix := partition.NewIndex(ds)
	work, bounds, err := plan(sctx, ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := testutil.PrepReference{Plan: opt.Stats.Snapshot(), Subs: make([]stats.Snapshot, len(work))}
	sink := topk.NewConcurrent(q.Params.K)
	w := fullSortWorker{newSearcher(context.Background(), sctx, sink, q, ix, work, opt), ref.Subs}
	cut, err := sched.Run(new(sched.Pool[prepState]), len(work), sched.Bounds{Of: bounds, Accept: sink.WouldAccept}, 1, 1, sched.Tuning{},
		func() sched.Worker[prepState] { return w })
	if err != nil {
		t.Fatal(err)
	}
	opt.Stats.Add(stats.Snapshot{SubspacesBounded: int64(cut)})
	res, snap := sink.Results(), opt.Stats.Snapshot()
	ref.Prepared = len(work) - cut
	p := new(prepState)
	for sub := ref.Prepared; sub < len(work); sub++ {
		if _, err := w.Prep(p, 0, sub); err != nil {
			t.Fatal(err)
		}
	}
	return res, snap, ref
}

// prepProbe counts what the reachable-only sampling must survive:
// unreachable buckets that sampling cuts, reachable buckets that
// selection cuts, and subspaces skipped after a dimension was scored.
type prepProbe struct{ unreachableCut, reachableCut, lateSkips int }

func (pr *prepProbe) inspect(s *searcher, p *prepState, ss *partition.Subspace, skip bool, scoredBefore int64) {
	if skip {
		if s.delta.Candidates > scoredBefore {
			pr.lateSkips++
		}
		return
	}
	c := s.sctx
	var prefix float64
	for d := 0; d < c.M; d++ {
		for _, sc := range p.cellLists[d] {
			if bucketLen(s, p, ss, d, sc.cell) <= s.q.Params.Xi {
				continue
			}
			if s.heap.WouldAccept(c.Combine(1, (prefix+sc.score+p.rbarSuffix[d+1])/float64(c.M))) {
				pr.reachableCut++
			} else {
				pr.unreachableCut++
			}
		}
		prefix += p.cellLists[d][0].score
	}
}

// bucketLen counts the candidates of dimension d in cell before
// sampling.
func bucketLen(s *searcher, p *prepState, ss *partition.Subspace, d, cell int) int {
	if s.q.Example.FixedDim(d) >= 0 {
		return 1
	}
	region := ss.AC
	if d == 0 {
		region = ss.Core
	}
	ds, cat := s.sctx.DS, s.q.Example.Categories[d]
	n := 0
	for _, ps := range testutil.InRegion(ds, ds.CategoryObjects(cat), cat, region) {
		if p.g.Cell(ds.Loc(int(ps))) == cell {
			n++
		}
	}
	return n
}

// prepCases are testutil.EnumerationQueries plus denser queries whose
// buckets overflow xi, a rare category that leaves most subspaces
// without a candidate for a middle dimension, and a pinned last
// dimension that most subspaces cannot host.
func prepCases() []testutil.ShapedQuery {
	cases := testutil.EnumerationQueries()
	for i := 0; i < 8; i++ {
		rng := rand.New(rand.NewSource(int64(700 + i)))
		ds := testutil.RandDataset(rng, 500, 3, 3, 100)
		q := testutil.RandQuery(rng, ds, 3, 25, query.Params{K: 2 + i%6, Alpha: 0.3 + 0.1*float64(i%5), Beta: 1.5, GridD: 3 + i%3, Xi: 2 + i%3})
		if i%4 == 3 {
			testutil.PinDims(rng, ds, q, 2)
		}
		cases = append(cases, shaped("dense", i, ds, q))
	}
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(800 + i)))
		ds := rareDataset(rng, 400)
		q := testutil.RandQuery(rng, ds, 3, 20, query.Params{K: 3 + i%3, Alpha: 0.5, Beta: 2, GridD: 4, Xi: 3})
		q.Example.Categories = []dataset.CategoryID{0, 2, 1}
		if i%2 == 1 {
			q.Example.Categories[2] = 0
		}
		cases = append(cases, shaped("rare-middle", i, ds, q))
	}
	return cases
}

func shaped(shape string, i int, ds *dataset.Dataset, q *query.Query) testutil.ShapedQuery {
	if err := q.Validate(ds); err != nil {
		panic(err)
	}
	return testutil.ShapedQuery{Shape: shape, Name: shape + "/" + string(rune('a'+i)), DS: ds, Q: q}
}

// rareDataset spreads categories 0 and 1 over a 100 x 100 square and
// puts category 2 only in its lower-left corner.
func rareDataset(rng *rand.Rand, n int) *dataset.Dataset {
	b := &dataset.Builder{}
	cats := []dataset.CategoryID{b.Category("a"), b.Category("b"), b.Category("rare")}
	for i := 0; i < n; i++ {
		cat, ext := cats[rng.Intn(2)], 100.0
		if i%10 == 0 {
			cat, ext = cats[2], 15
		}
		b.Add(dataset.Object{ID: int64(i), Category: cat, Attr: []float64{rng.Float64(), rng.Float64(), rng.Float64()},
			Loc: geo.Point{X: rng.Float64() * ext, Y: rng.Float64() * ext}})
	}
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ds
}

// TestPrepMatchesFullSort holds Search to a per-dimension brute scan and
// the full-sort sampling that the region gather and reachable-only
// selection replaced, sequentially under the paper's LORA,
// PruneCellNorm and RandomSample, and at Parallelism 2: bit-identical
// answers, and each prepared subspace's counters exactly
// (testutil.CheckPreps). Sequentially every stats.Snapshot field, memo
// counters included, must match too; at Parallelism 2 how far down the
// plan order the run prepares before the stop, and the enumeration
// counters, depend on the schedule. The probe shows the cases reach
// what the change must survive: unreachable buckets larger than xi,
// reachable ones cut by selection, and subspaces skipped after a scored
// dimension.
func TestPrepMatchesFullSort(t *testing.T) {
	var probe prepProbe
	for _, c := range prepCases() {
		for _, opt := range []Options{{}, {PruneCellNorm: true}, {RandomSample: true, RandomSeed: 7},
			{Parallelism: 2}, {Parallelism: 2, Steal: sched.Tuning{ChunkSize: 1}}} {
			seq := opt
			seq.Parallelism, seq.Steal = 0, sched.Tuning{}
			want, wantWork, ref := searchFullSort(t, c.DS, c.Q, seq)
			st, tr := &stats.Stats{}, span.NewTracerLimits(1<<20, 0)
			opt.Stats, opt.Span = st, tr.Root("search")
			got, err := Search(context.Background(), c.DS, partition.NewIndex(c.DS), c.Q, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			label := fmt.Sprintf("%s %+v", c.Name, seq)
			if opt.Parallelism > 1 {
				label = fmt.Sprintf("%s parallel chunk %d", c.Name, opt.Steal.ChunkSize)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: answers %v; full-sort prep %v", label, got, want)
			}
			if work := st.Snapshot(); opt.Parallelism <= 1 && work != wantWork {
				t.Errorf("%s: counters %+v; full-sort prep %+v", label, work, wantWork)
			}
			testutil.CheckPreps(t, label, tr.Snapshot(), "lora.sample", st.Snapshot(), ref)
		}
		probe.run(t, c)
	}
	t.Logf("probe: %+v", probe)
	if probe.unreachableCut == 0 || probe.reachableCut == 0 || probe.lateSkips == 0 {
		t.Errorf("probe %+v: the cases never cut an unreachable or a reachable bucket, or never skipped after scoring", probe)
	}
}

// run replays the sequential search of c with the probe inspecting
// every prepared subspace.
func (pr *prepProbe) run(t *testing.T, c testutil.ShapedQuery) {
	sctx := simil.NewContext(c.DS, c.Q)
	ix := partition.NewIndex(c.DS)
	part, err := ix.PartitionBucketed(sctx.PartitionRadius())
	if err != nil {
		t.Fatal(err)
	}
	s, p := newSearcher(context.Background(), sctx, topk.NewConcurrent(c.Q.Params.K), c.Q, ix, nil, Options{}), new(prepState)
	for i := range part.Subspaces {
		scored := s.delta.Candidates
		skip, err := s.prepareInto(p, &part.Subspaces[i])
		if err != nil {
			t.Fatal(err)
		}
		pr.inspect(s, p, &part.Subspaces[i], skip, scored)
		if !skip {
			s.attach(p)
			if err := s.cellDFS(0, 0, 0, len(p.cellLists[0])); err != nil {
				t.Fatal(err)
			}
		}
	}
}
