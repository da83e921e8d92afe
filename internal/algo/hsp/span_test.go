package hsp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/testutil"
)

// TestSpanTimeline verifies the unit-span tree an HSP search records,
// sequential and parallel alike: one "hsp.candidates" span per subspace
// carrying the subspace-level delta (searched/skipped marks, candidate
// volume, memo hits), one "hsp.dfs" span per enumerated chunk carrying
// the DFS delta, every unit tagged with both its worker lane and owning
// subspace, and the per-unit deltas summing to the query-wide counters.
// A sequential search runs every unit on lane 0, in subspace order, with
// one chunk per searched subspace.
func TestSpanTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			checkSpanTimeline(t, ds, ix, q, par)
		})
	}
}

func checkSpanTimeline(t *testing.T, ds *dataset.Dataset, ix *partition.Index, q *query.Query, par int) {
	st := &stats.Stats{}
	tr := span.NewTracer()
	root := tr.Root("search")
	if _, err := Search(context.Background(), ds, ix, q, Options{
		Parallelism: par, Stats: st, Span: root,
	}); err != nil {
		t.Fatal(err)
	}
	root.End()

	tree := tr.Snapshot()
	if tree == nil {
		t.Fatal("no spans recorded")
	}
	workers := make(map[int32]bool)
	searched := make(map[int32]bool)
	chunkSubs := make(map[int32]bool)
	var prepSpans, chunkSpans int
	var workSubspaces, workSkipped, workCand, workHits, maxCand int64
	var workPruned, workTuples, workOffered int64
	lastSub := int32(-1)
	for _, n := range tree.Nodes {
		switch n.Name {
		case "hsp.candidates", "hsp.dfs":
			if n.Subspace < 0 || n.Worker < 0 {
				t.Errorf("%s span untagged: worker %d subspace %d", n.Name, n.Worker, n.Subspace)
			}
			if n.Work == nil {
				t.Fatalf("%s span without work delta", n.Name)
			}
			workers[n.Worker] = true
			if par == 1 && n.Subspace < lastSub {
				t.Errorf("sequential %s span for subspace %d after subspace %d", n.Name, n.Subspace, lastSub)
			}
			lastSub = n.Subspace
		case "hsp.bound":
			// The subspaces the bound finds infeasible are skipped here,
			// without a prep.
			workSkipped += n.Work.SubspacesSkipped
		case "search", "hsp.partition", "hsp.simprep", "topk.merge":
		default:
			t.Errorf("unexpected %q span", n.Name)
		}
		switch n.Name {
		case "hsp.candidates":
			prepSpans++
			workSubspaces += n.Work.Subspaces
			workSkipped += n.Work.SubspacesSkipped
			workCand += n.Work.Candidates
			workHits += n.Work.AttrSimMemoHits
			if n.Work.Subspaces == 1 {
				searched[n.Subspace] = true
			}
			if n.Work.Candidates != n.Work.SubspaceCandidatesMax {
				t.Errorf("per-subspace delta: candidates %d != own max %d",
					n.Work.Candidates, n.Work.SubspaceCandidatesMax)
			}
			if n.Work.SubspaceCandidatesMax > maxCand {
				maxCand = n.Work.SubspaceCandidatesMax
			}
		case "hsp.dfs":
			chunkSpans++
			chunkSubs[n.Subspace] = true
			workPruned += n.Work.PrunedPrefixes
			workTuples += n.Work.Tuples
			workOffered += n.Work.Offered
		}
	}
	if len(workers) == 0 || len(workers) > par || (par == 1 && !workers[0]) {
		t.Errorf("got worker lanes %v, want 1..%d from 0", workers, par)
	}
	snap := st.Snapshot()
	if prepSpans == 0 || workSubspaces+workSkipped != snap.Subspaces+snap.SubspacesSkipped {
		t.Errorf("prep deltas (%d searched + %d skipped over %d spans) disagree with counters (%d + %d)",
			workSubspaces, workSkipped, prepSpans, snap.Subspaces, snap.SubspacesSkipped)
	}
	if workCand != snap.Candidates {
		t.Errorf("prep candidate deltas sum to %d, counters say %d", workCand, snap.Candidates)
	}
	// The memo counts its hits per unit.
	if workHits != snap.AttrSimMemoHits {
		t.Errorf("prep memo-hit deltas sum to %d, counters say %d", workHits, snap.AttrSimMemoHits)
	}
	if snap.SubspaceCandidatesMax != maxCand {
		t.Errorf("SubspaceCandidatesMax = %d, want the span-tree max %d", snap.SubspaceCandidatesMax, maxCand)
	}
	// Every searched subspace published at least one chunk (exactly one
	// when sequential), and every chunk belongs to a searched subspace.
	if chunkSpans < len(searched) || (par == 1 && chunkSpans != len(searched)) {
		t.Errorf("%d chunk spans for %d searched subspaces", chunkSpans, len(searched))
	}
	if len(chunkSubs) != len(searched) {
		t.Errorf("chunks cover %d subspaces, %d were searched", len(chunkSubs), len(searched))
	}
	for sub := range chunkSubs {
		if !searched[sub] {
			t.Errorf("chunk recorded for unsearched subspace %d", sub)
		}
	}
	if workPruned != snap.PrunedPrefixes || workTuples != snap.Tuples || workOffered != snap.Offered {
		t.Errorf("chunk deltas (pruned %d, tuples %d, offered %d) disagree with counters (%d, %d, %d)",
			workPruned, workTuples, workOffered, snap.PrunedPrefixes, snap.Tuples, snap.Offered)
	}
	if sk := tr.Skew(); sk == nil || sk.Workers != len(workers) {
		t.Errorf("skew report = %+v, want %d workers", sk, len(workers))
	}

	// The derived flat aggregate exposes the unit phases, not containers.
	for _, p := range tr.PhaseTimings() {
		if p.Name == "search" {
			t.Errorf("container span %q leaked into phase timings", p.Name)
		}
	}
}

// TestSpanSequentialLane: the sequential path still records a single
// worker-0 lane so timelines and skew reports have a uniform shape.
func TestSpanSequentialLane(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	ds := testutil.RandDataset(rng, 200, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 4, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	root := tr.Root("search")
	if _, err := Search(context.Background(), ds, ix, q, Options{Span: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	sk := tr.Skew()
	if sk == nil || sk.Workers != 1 || sk.Parallel {
		t.Errorf("sequential skew = %+v, want exactly one non-parallel lane", sk)
	}
	if sk != nil && sk.ImbalanceRatio != 1 {
		t.Errorf("single lane imbalance = %v, want 1", sk.ImbalanceRatio)
	}
}
