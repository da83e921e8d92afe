package hsp

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// searchSequential is Search's sequential driver with prep and enum in
// place of prepareInto and the DFS over a prepared subspace. shared
// fills the memo eagerly, as the stealing path does. It returns the
// answers and every counter Search reports.
func searchSequential(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options, shared bool,
	prep func(*searcher, *prepState, *partition.Subspace) (skip bool), enum func(*searcher)) ([]topk.Entry, stats.Snapshot) {
	t.Helper()
	sctx := simil.NewContext(ds, q)
	radius := sctx.PartitionRadius()
	if opt.DisablePartition {
		radius = math.Inf(1)
	}
	part, err := buildIndex(ds).PartitionBucketed(radius)
	if err != nil {
		t.Fatal(err)
	}
	var work []*partition.Subspace
	for si := range part.Subspaces {
		if ss := &part.Subspaces[si]; q.Example.FixedDim(0) < 0 || ss.Core.Contains(ds.Loc(int(q.Example.FixedDim(0)))) {
			work = append(work, ss)
		}
	}
	var snap stats.Snapshot
	if len(work) > 1 {
		if shared {
			snap.AttrSimMemoMisses = sctx.PrepareMemoShared()
		} else {
			sctx.EnableMemo()
		}
	}
	heap := topk.New(q.Params.K)
	s, p := newSearcher(context.Background(), sctx, heap, q, nil, opt), new(prepState)
	for _, ss := range work {
		if prep(s, p, ss) {
			snap.SubspacesSkipped++
			continue
		}
		snap.Subspaces++
		snap.Candidates += p.candTotal
		snap.SubspaceCandidatesMax = max(snap.SubspaceCandidatesMax, p.candTotal)
		s.attach(p)
		enum(s)
	}
	hits, misses := sctx.MemoCounters()
	snap.AttrSimMemoHits = hits + s.local.memoHits
	snap.AttrSimMemoMisses += misses
	snap.PrunedPrefixes, snap.Tuples, snap.Offered = s.local.pruned, s.local.tuples, s.local.offered
	return heap.Results(), snap
}

// prepareFullSort is the prep HSP ran before the region gather and
// sortHead: every list is a scan of the subspace's points through
// simil.Context.CandidatesBatchInto, sorted in full.
func (s *searcher) prepareFullSort(p *prepState, ds *dataset.Dataset, q *query.Query, ss *partition.Subspace) (skip bool) {
	c := s.sctx
	if p.cands == nil {
		p.cands = make([][]simil.Cand, c.M)
		p.rbarSuffix = make([]float64, c.M+1)
	}
	p.candTotal = 0
	for d := 0; d < c.M; d++ {
		region, source := ss.AC, ss.ACPoints
		if d == 0 {
			region, source = ss.Core, ss.CorePoints
		}
		if fixed := q.Example.FixedDim(d); fixed >= 0 {
			if !region.Contains(ds.Loc(int(fixed))) {
				return true
			}
			p.cands[d] = append(p.cands[d][:0], simil.Cand{Pos: fixed, Sim: c.AttrSim(d, fixed)})
		} else {
			p.cands[d] = c.CandidatesBatchInto(p.cands[d][:0], d, source, &s.batch)
		}
		if s.countHits {
			s.local.memoHits += int64(len(p.cands[d]))
		}
		if len(p.cands[d]) == 0 {
			return true
		}
		p.candTotal += int64(len(p.cands[d]))
	}
	p.rbarSuffix[c.M] = 0
	for d := c.M - 1; d >= 0; d-- {
		p.rbarSuffix[d] = p.rbarSuffix[d+1] + p.cands[d][0].Sim
	}
	return false
}

// runDFS is the enumeration Search runs over a prepared subspace.
func runDFS(t *testing.T) func(*searcher) {
	return func(s *searcher) {
		if err := s.dfs(0, 0, 0, len(s.cands[0])); err != nil {
			t.Fatal(err)
		}
	}
}

// searchFullSort is the sequential search over full-sort prepared lists.
func searchFullSort(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options, shared bool) ([]topk.Entry, stats.Snapshot) {
	return searchSequential(t, ds, q, opt, shared,
		func(s *searcher, p *prepState, ss *partition.Subspace) bool { return s.prepareFullSort(p, ds, q, ss) },
		runDFS(t))
}

// headProbe inspects prepareInto's lists: how often an object in a
// dimension's sorted head also sits in the unsorted tail of a later
// dimension of the same category (where it is an earlier tuple object
// the DFS skips), and how often a head ends in a tie with a tail behind
// it.
type headProbe struct{ usedInTail, tiedHeadEnd int }

func (pr *headProbe) inspect(s *searcher, p *prepState, q *query.Query) {
	c := s.sctx
	heads := make([]int, c.M)
	var prefix float64
	for d, list := range p.cands {
		for _, cand := range list {
			if s.heap.WouldAccept(c.Combine(1, s.attrBound(prefix+cand.Sim, d+1, p.rbarSuffix))) {
				heads[d]++
			}
		}
		prefix += list[0].Sim
		if n := heads[d]; n > 1 && n < len(list) && list[n-1].Sim == list[n-2].Sim {
			pr.tiedHeadEnd++
		}
	}
	for d := range p.cands {
		for e := 0; e < d; e++ {
			if q.Example.Categories[e] != q.Example.Categories[d] {
				continue
			}
			for _, h := range p.cands[e][:heads[e]] {
				for _, tl := range p.cands[d][heads[d]:] {
					if h.Pos == tl.Pos {
						pr.usedInTail++
					}
				}
			}
		}
	}
}

// tieDataset puts n objects of two categories on a coarse integer grid,
// each with one of three attribute vectors, so sims tie in long runs.
func tieDataset(rng *rand.Rand, n int) *dataset.Dataset {
	vecs := [][]float64{{1, 0.2}, {0.6, 0.8}, {0.3, 0.9}}
	b := &dataset.Builder{}
	cats := []dataset.CategoryID{b.Category("a"), b.Category("b")}
	for i := 0; i < n; i++ {
		b.Add(dataset.Object{ID: int64(i), Category: cats[rng.Intn(2)], Attr: vecs[rng.Intn(3)],
			Loc: geo.Point{X: float64(rng.Intn(25)), Y: float64(rng.Intn(25))}})
	}
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ds
}

// prepCases are testutil.EnumerationQueries plus tie-heavy queries whose
// first and last dimensions share a category.
func prepCases() []testutil.ShapedQuery {
	cases := testutil.EnumerationQueries()
	for i := 0; i < 12; i++ {
		rng := rand.New(rand.NewSource(int64(900 + i)))
		ds := tieDataset(rng, 400)
		q := testutil.RandQuery(rng, ds, 3, 8, query.Params{K: 1 + i%6, Alpha: 0.5, Beta: 1.5 + float64(i%3)})
		q.Example.Categories[2] = q.Example.Categories[0]
		if i%4 == 3 {
			testutil.PinDims(rng, ds, q, 1)
		}
		if err := q.Validate(ds); err != nil {
			panic(err)
		}
		cases = append(cases, testutil.ShapedQuery{Shape: "tie-grid", Name: "tie-grid/" + string(rune('a'+i)), DS: ds, Q: q})
	}
	return cases
}

// TestPrepMatchesFullSort holds the sequential search to the full-sort
// prep the region gather and head-only sort replaced: bit-identical
// answers and every stats.Snapshot field, memo counters included, under
// each bound variant. The probe shows the cases reach what the head
// split must survive: earlier tuple objects in unsorted tails, and
// heads that end in a tie.
func TestPrepMatchesFullSort(t *testing.T) {
	var probe headProbe
	for _, c := range prepCases() {
		for _, opt := range []Options{{}, {LooseBounds: true}, {DisablePartition: true}} {
			want, wantWork := searchFullSort(t, c.DS, c.Q, opt, false)
			opt.Stats = &stats.Stats{}
			got, err := Search(context.Background(), c.DS, buildIndex(c.DS), c.Q, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if work := opt.Stats.Snapshot(); !reflect.DeepEqual(got, want) || work != wantWork {
				t.Errorf("%s %+v: answers %v, counters %+v; full-sort prep %v, %+v", c.Name, opt, got, work, want, wantWork)
			}
			searchSequential(t, c.DS, c.Q, opt, false,
				func(s *searcher, p *prepState, ss *partition.Subspace) bool {
					skip, err := s.prepareInto(p, c.DS, c.Q, ss)
					if err != nil {
						t.Fatal(err)
					}
					if !skip {
						probe.inspect(s, p, c.Q)
					}
					return skip
				},
				runDFS(t))
		}
	}
	t.Logf("probe: %+v", probe)
	if probe.usedInTail == 0 || probe.tiedHeadEnd == 0 {
		t.Errorf("probe %+v: no head object sat in a later same-category tail, or no head ended in a tie", probe)
	}
}

// TestStealPrepMatchesFullSort: the stealing path preps while other
// workers raise the threshold, so its enumeration counters depend on the
// schedule, but its answers and the prep counters must equal the
// full-sort prep's, at chunk size 1 and at the auto size.
func TestStealPrepMatchesFullSort(t *testing.T) {
	for _, c := range prepCases() {
		want, wantWork := searchFullSort(t, c.DS, c.Q, Options{}, true)
		wantWork.PrunedPrefixes, wantWork.Tuples, wantWork.Offered = 0, 0, 0
		for _, chunk := range []int{1, 0} {
			st := &stats.Stats{}
			got, err := Search(context.Background(), c.DS, buildIndex(c.DS), c.Q,
				Options{Parallelism: 2, Steal: sched.Tuning{ChunkSize: chunk}, Stats: st})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			work := st.Snapshot()
			work.PrunedPrefixes, work.Tuples, work.Offered = 0, 0, 0
			if !reflect.DeepEqual(got, want) || work != wantWork {
				t.Errorf("%s chunk %d: answers %v, counters %+v; full-sort prep %v, %+v", c.Name, chunk, got, work, want, wantWork)
			}
		}
	}
}
