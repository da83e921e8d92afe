package lora

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

// TestSpanTimeline verifies LORA's unit-span tree, sequential and
// parallel alike: one "lora.sample" span per subspace carrying the
// subspace-level delta, one "lora.enum" span per enumerated chunk
// carrying the cell/point enumeration delta, every unit tagged with both
// its worker lane and owning subspace, and the per-unit deltas summing
// to the query-wide counters. A sequential search runs every unit on
// lane 0, in subspace order, with one chunk per searched subspace.
func TestSpanTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	ds := testutil.RandDataset(rng, 300, 3, 4, 100)
	ix := buildIndex(ds)
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
	var workCellTuples, workPops, workTuples, workOffered int64
	lastSub := int32(-1)
	for _, n := range tree.Nodes {
		switch n.Name {
		case "lora.sample", "lora.enum":
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
		case "lora.bound":
			// The subspaces the bound finds infeasible are skipped here,
			// without a prep.
			workSkipped += n.Work.SubspacesSkipped
		case "search", "lora.partition", "lora.simprep", "topk.merge":
		default:
			t.Errorf("unexpected %q span", n.Name)
		}
		switch n.Name {
		case "lora.sample":
			prepSpans++
			workSubspaces += n.Work.Subspaces
			workSkipped += n.Work.SubspacesSkipped
			workCand += n.Work.Candidates
			workHits += n.Work.AttrSimMemoHits
			if n.Work.Subspaces == 1 {
				searched[n.Subspace] = true
			}
			if n.Work.SubspaceCandidatesMax > maxCand {
				maxCand = n.Work.SubspaceCandidatesMax
			}
		case "lora.enum":
			chunkSpans++
			chunkSubs[n.Subspace] = true
			workCellTuples += n.Work.CellTuples
			workPops += n.Work.RankPops
			workTuples += n.Work.Tuples
			workOffered += n.Work.Offered
		}
	}
	if prepSpans == 0 {
		t.Fatal("no prep spans recorded")
	}
	if len(workers) == 0 || len(workers) > par || (par == 1 && !workers[0]) {
		t.Errorf("got worker lanes %v, want 1..%d from 0", workers, par)
	}
	snap := st.Snapshot()
	if workSubspaces+workSkipped != snap.Subspaces+snap.SubspacesSkipped {
		t.Errorf("prep deltas (%d searched + %d skipped) disagree with counters (%d + %d)",
			workSubspaces, workSkipped, snap.Subspaces, snap.SubspacesSkipped)
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
	if chunkSpans < len(searched) || len(chunkSubs) != len(searched) ||
		(par == 1 && chunkSpans != len(searched)) {
		t.Errorf("%d chunk spans over %d subspaces for %d searched subspaces",
			chunkSpans, len(chunkSubs), len(searched))
	}
	if workCellTuples != snap.CellTuples || workPops != snap.RankPops ||
		workTuples != snap.Tuples || workOffered != snap.Offered {
		t.Errorf("chunk deltas (cells %d, pops %d, tuples %d, offered %d) disagree with counters (%d, %d, %d, %d)",
			workCellTuples, workPops, workTuples, workOffered,
			snap.CellTuples, snap.RankPops, snap.Tuples, snap.Offered)
	}
	if sk := tr.Skew(); sk == nil || sk.Workers != len(workers) {
		t.Errorf("skew report = %+v, want %d workers", sk, len(workers))
	}
}
