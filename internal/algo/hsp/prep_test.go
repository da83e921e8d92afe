package hsp

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/dataset"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
	"spatialseq/internal/topk"
)

// searchSequential is Search's sequential run, with the same plan
// (memo, order and stop), and with prep and enum in place of
// prepareInto and the DFS over a prepared subspace. It returns the
// answers, every counter Search reports, and each planned subspace's
// prep delta: after the run it also prepares the subspaces the stop
// cut, for the table only.
func searchSequential(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options,
	prep func(*searcher, *prepState, *partition.Subspace) (skip bool), enum func(*searcher)) ([]topk.Entry, stats.Snapshot, testutil.PrepReference) {
	t.Helper()
	sctx := simil.NewContext(ds, q)
	opt.Stats = &stats.Stats{}
	ix := partition.NewIndex(ds)
	work, bounds, err := plan(sctx, ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := testutil.PrepReference{Plan: opt.Stats.Snapshot(), Subs: make([]stats.Snapshot, len(work))}
	heap := topk.NewConcurrent(q.Params.K)
	w := &refWorker{s: newSearcher(context.Background(), sctx, heap, q, ix, nil, opt), work: work, prep: prep, enum: enum, subs: ref.Subs}
	cut, err := sched.Run(new(sched.Pool[prepState]), len(work), sched.Bounds{Of: bounds, Accept: heap.WouldAccept}, 1, hspMinChunk, sched.Tuning{},
		func() sched.Worker[prepState] { return w })
	if err != nil {
		t.Fatal(err)
	}
	ref.Prepared = len(work) - cut
	snap := ref.Plan
	for _, d := range ref.Subs[:ref.Prepared] {
		snap = snap.Add(d)
	}
	snap.SubspacesBounded = int64(cut)
	snap = snap.Add(w.s.delta)
	p := new(prepState)
	for sub := ref.Prepared; sub < len(work); sub++ {
		if _, err := w.Prep(p, 0, sub); err != nil {
			t.Fatal(err)
		}
	}
	return heap.Results(), snap, ref
}

// refWorker runs a reference search's prep and enum as a sched.Worker
// and records each subspace's prep delta as Search's "hsp.candidates"
// span carries it: every similarity a prep reads is a memo hit when the
// plan filled the memo.
type refWorker struct {
	s    *searcher
	work []*partition.Subspace
	prep func(*searcher, *prepState, *partition.Subspace) (skip bool)
	enum func(*searcher)
	subs []stats.Snapshot
}

func (w *refWorker) Prep(p *prepState, _, sub int) (int, error) {
	skip := w.prep(w.s, p, w.work[sub])
	var d stats.Snapshot
	if w.s.sctx.MemoShared() {
		d.AttrSimMemoHits = p.scored
	}
	if skip {
		d.SubspacesSkipped = 1
		w.subs[sub] = d
		return 0, nil
	}
	d.Subspaces, d.Candidates, d.SubspaceCandidatesMax = 1, p.scored, p.scored
	w.subs[sub] = d
	return len(p.cands[0]), nil
}

// Chunk enumerates all of a prepared subspace: a sequential run has one
// chunk per subspace.
func (w *refWorker) Chunk(p *prepState, _, _, _, _ int) error {
	w.s.attach(p)
	w.enum(w.s)
	return nil
}

// prepareFullSort is the prep HSP ran before the region gather and the
// head split, with a brute scan of the category for the region's
// objects: every list is simil.Context.CandidatesBatchInto over them,
// sorted in full, and its order marks it so.
func (s *searcher) prepareFullSort(p *prepState, ds *dataset.Dataset, q *query.Query, ss *partition.Subspace) (skip bool) {
	c := s.sctx
	if p.cands == nil {
		p.cands = make([][]simil.Cand, c.M)
		p.orders = make([]headOrder, c.M)
		p.rbarSuffix = make([]float64, c.M+1)
	}
	p.scored = 0
	for d := 0; d < c.M; d++ {
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
			cat := q.Example.Categories[d]
			source := testutil.InRegion(ds, ds.CategoryObjects(cat), cat, region)
			p.cands[d] = c.CandidatesBatchInto(p.cands[d][:0], d, source, &s.batch)
		}
		p.scored += int64(len(p.cands[d]))
		if len(p.cands[d]) == 0 {
			return true
		}
		p.orders[d].reset(0, len(p.cands[d]))
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
func searchFullSort(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) ([]topk.Entry, stats.Snapshot, testutil.PrepReference) {
	return searchSequential(t, ds, q, opt,
		func(s *searcher, p *prepState, ss *partition.Subspace) bool { return s.prepareFullSort(p, ds, q, ss) },
		runDFS(t))
}

// headProbe inspects prepareInto's lists: how often an object in a
// dimension's head also sits in the tail of a later dimension of the
// same category (where it is an earlier tuple object the DFS skips),
// and how often the sorted head ends in a tie with a tail behind it.
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
		head := slices.Clone(list[:heads[d]])
		simil.SortCandidates(head)
		if n := heads[d]; n > 1 && n < len(list) && head[n-1].Sim == head[n-2].Sim {
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

// prepCases are testutil.EnumerationQueries plus the tie-grid queries,
// whose first and last dimensions share a category.
func prepCases() []testutil.ShapedQuery {
	return append(testutil.EnumerationQueries(), testutil.TieGridQueries()...)
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
			want, wantWork, _ := searchFullSort(t, c.DS, c.Q, opt)
			opt.Stats = &stats.Stats{}
			got, err := Search(context.Background(), c.DS, partition.NewIndex(c.DS), c.Q, opt)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			work := opt.Stats.Snapshot()
			if !reflect.DeepEqual(got, want) || work != wantWork {
				t.Errorf("%s %+v: answers %v, counters %+v; full-sort prep %v, %+v", c.Name, opt, got, work, want, wantWork)
			}
			if n := subspaceCount(t, c.DS, c.Q, opt); subspaceTotal(work) != n {
				t.Errorf("%s %+v: %d subspaces searched, skipped or bounded, of %d", c.Name, opt, subspaceTotal(work), n)
			}
			searchSequential(t, c.DS, c.Q, opt,
				func(s *searcher, p *prepState, ss *partition.Subspace) bool {
					skip := s.prepareInto(p, c.DS, c.Q, ss)
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
// workers raise the threshold, so how far down the plan order it
// prepares before the stop, and its enumeration counters, depend on the
// schedule. Its answers must equal the full-sort prep's, each subspace
// it prepares must carry the full-sort prep's counters exactly, it must
// prepare at least the subspaces the sequential run did, and its prep
// counters must be the plan's plus those preps' (testutil.CheckPreps),
// at chunk size 1 and at the auto size.
func TestStealPrepMatchesFullSort(t *testing.T) {
	for _, c := range prepCases() {
		want, _, ref := searchFullSort(t, c.DS, c.Q, Options{})
		for _, chunk := range []int{1, 0} {
			st, tr := &stats.Stats{}, span.NewTracerLimits(1<<20, 0)
			got, err := Search(context.Background(), c.DS, partition.NewIndex(c.DS), c.Q,
				Options{Parallelism: 2, Steal: sched.Tuning{ChunkSize: chunk}, Stats: st, Span: tr.Root("search")})
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			label := fmt.Sprintf("%s chunk %d", c.Name, chunk)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: answers %v; full-sort prep %v", label, got, want)
			}
			testutil.CheckPreps(t, label, tr.Snapshot(), "hsp.candidates", st.Snapshot(), ref)
		}
	}
}

// subspaceCount counts the subspaces a search of q visits or cuts: the
// partition's, or with dimension 0 pinned the one whose core holds it.
func subspaceCount(t *testing.T, ds *dataset.Dataset, q *query.Query, opt Options) int64 {
	t.Helper()
	radius := simil.NewContext(ds, q).PartitionRadius()
	if opt.DisablePartition {
		radius = math.Inf(1)
	}
	part, err := partition.NewIndex(ds).PartitionBucketed(radius)
	if err != nil {
		t.Fatal(err)
	}
	if q.Example.FixedDim(0) >= 0 {
		return 1
	}
	return int64(len(part.Subspaces))
}

// subspaceTotal counts every subspace a search visited or cut.
func subspaceTotal(s stats.Snapshot) int64 {
	return s.Subspaces + s.SubspacesSkipped + s.SubspacesBounded
}
