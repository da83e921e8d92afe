package simil

import (
	"spatialseq/internal/obs/span"
	"spatialseq/internal/partition"
	"spatialseq/internal/stats"
)

// PlanSpec says how a search plans the subspaces it visits.
type PlanSpec struct {
	// Radius is the partition radius; +Inf gives one subspace.
	Radius float64
	// Ordered bounds the subspaces and visits them best-first
	// (OrderByBound); false keeps partition order with no bounds.
	Ordered bool
	// Phases names the plan's spans, opened under Span.
	Phases PlanPhases
	Span   span.Span
	// Stats takes the memo misses and the subspaces the bound pass
	// drops, each with the span of the phase that counted it.
	Stats *stats.Stats
}

// PlanPhases names the spans of a plan: the partition, the eager memo
// fill and the bound pass.
type PlanPhases struct{ Partition, Memo, Bound string }

// Plan partitions the space at ps.Radius and returns the subspaces a
// search visits, in visiting order, with their bounds (nil in partition
// order). If dimension 0 is pinned, only the subspace owning that
// point's core can produce results (Lemma 1 discipline). With more than
// one subspace the overlapping ac-regions revisit the same (dimension,
// object) pairs, so the attribute cosines are memoized eagerly
// (read-only, worker-safe), and with Ordered the subspaces are bounded
// from the memo and ordered best-first, the ones that cannot hold a
// tuple dropped and counted as skipped. A single subspace has no reuse
// to win and scores its candidates directly.
func (c *Context) Plan(ix *partition.Index, ps PlanSpec) ([]*partition.Subspace, []float64, error) {
	psp := ps.Span.Child(ps.Phases.Partition)
	part, err := ix.PartitionBucketed(ps.Radius)
	psp.End()
	if err != nil {
		return nil, nil, err
	}
	fixed0 := c.Ex.FixedDim(0)
	work := c.bufs.work[:0]
	for si := range part.Subspaces {
		ss := &part.Subspaces[si]
		if fixed0 >= 0 && !ss.Core.Contains(c.DS.Loc(int(fixed0))) {
			continue
		}
		work = append(work, ss)
	}
	c.bufs.work = work
	if len(work) <= 1 {
		return work, nil, nil
	}
	msp := ps.Span.Child(ps.Phases.Memo)
	fill := stats.Snapshot{AttrSimMemoMisses: c.PrepareMemoShared()}
	msp.EndWork(fill)
	ps.Stats.Add(fill)
	if !ps.Ordered {
		return work, nil, nil
	}
	bsp := ps.Span.Child(ps.Phases.Bound)
	kept, bounds, err := c.OrderByBound(part, work)
	if err != nil {
		bsp.End()
		return nil, nil, err
	}
	dropped := stats.Snapshot{SubspacesSkipped: int64(len(work) - len(kept))}
	bsp.EndWork(dropped)
	ps.Stats.Add(dropped)
	return kept, bounds, nil
}
