// Package stats defines the per-search counters the algorithms expose for
// observability: how many subspaces a query touched, how many candidate
// tuples were scored versus pruned, how much work the cell and point
// enumeration phases did. The counters explain *why* a query was fast or
// slow — the companion to the wall-clock numbers the evaluation reports.
//
// A Snapshot is the one counter record. Each unit of search work (a plan
// phase, a subspace prep, an enumeration chunk) counts into its own
// Snapshot's plain fields and hands that one value, when it finishes,
// both to the search's Stats and to the unit's span, so the span tree's
// deltas sum to the search's counters.
package stats

import "sync"

// Snapshot is one set of work counters: a unit's delta, a search's
// total or a run's sum. The JSON tags are the wire names the search API
// uses; Each exposes the same names to the server's cumulative work
// metrics, so evaluation counters and production metrics share one set
// of definitions.
type Snapshot struct {
	// Subspaces is the number of ac-subspaces searched (after skips).
	Subspaces int64 `json:"subspaces"`
	// SubspacesSkipped counts subspaces skipped before any enumeration
	// (missing category, pinned point elsewhere), whether the subspace
	// bound or the prep found it.
	SubspacesSkipped int64 `json:"subspaces_skipped"`
	// SubspacesBounded counts subspaces never prepared because their
	// bound could not beat the k-th result (the best-first stop). No
	// unit ran them, so the search adds it to Stats alone.
	SubspacesBounded int64 `json:"subspaces_bounded"`
	// Candidates is the number of candidate points considered across all
	// dimension lists.
	Candidates int64 `json:"candidates"`
	// PrunedPrefixes counts prefixes cut by an upper bound.
	PrunedPrefixes int64 `json:"pruned_prefixes"`
	// Tuples is the number of complete tuples scored (norm-checked).
	Tuples int64 `json:"tuples"`
	// Offered is the number of tuples offered to the top-k.
	Offered int64 `json:"offered"`
	// CellTuples is the number of complete cell tuples LORA examined.
	CellTuples int64 `json:"cell_tuples"`
	// PrunedCellPrefixes counts cell prefixes cut by the cell bound.
	PrunedCellPrefixes int64 `json:"pruned_cell_prefixes"`
	// RankPops is the number of rank-graph combinations popped.
	RankPops int64 `json:"rank_pops"`
	// SampledOut is the number of candidate points discarded by
	// query-dependent sampling.
	SampledOut int64 `json:"sampled_out"`
	// The memo counters are cache telemetry, not enumeration work: hits
	// measure cosines *avoided*. bench.WorkTotal excludes the
	// "attr_sim_memo_" prefix for exactly that reason.
	//
	// AttrSimMemoHits counts attribute similarities read from the
	// query-scoped memo table (cosines *not* recomputed).
	AttrSimMemoHits int64 `json:"attr_sim_memo_hits"`
	// AttrSimMemoMisses counts the attribute cosines the memo fill
	// computed.
	AttrSimMemoMisses int64 `json:"attr_sim_memo_misses"`
	// SubspaceCandidatesMax tracks the largest per-subspace candidate
	// volume of the query — a max, not a sum: it measures how lopsided
	// the subspace decomposition was, the load-skew signal behind the
	// span tracer's straggler attribution. Only searched subspaces count,
	// so above one worker it depends on the schedule, as Subspaces,
	// Candidates and SubspacesBounded do. Add takes the larger of the
	// two, and bench.WorkTotal excludes it from work sums by name.
	SubspaceCandidatesMax int64 `json:"subspace_candidates_max"`
}

// Each calls f with every counter's snake_case name and value, in
// declaration order — the single source of counter names for metrics
// exporters.
func (s Snapshot) Each(f func(name string, value int64)) {
	f("subspaces", s.Subspaces)
	f("subspaces_skipped", s.SubspacesSkipped)
	f("subspaces_bounded", s.SubspacesBounded)
	f("candidates", s.Candidates)
	f("pruned_prefixes", s.PrunedPrefixes)
	f("tuples", s.Tuples)
	f("offered", s.Offered)
	f("cell_tuples", s.CellTuples)
	f("pruned_cell_prefixes", s.PrunedCellPrefixes)
	f("rank_pops", s.RankPops)
	f("sampled_out", s.SampledOut)
	f("attr_sim_memo_hits", s.AttrSimMemoHits)
	f("attr_sim_memo_misses", s.AttrSimMemoMisses)
	f("subspace_candidates_max", s.SubspaceCandidatesMax)
}

// Add returns the field-wise sum of s and o — except
// SubspaceCandidatesMax, which keeps max semantics (the accumulated
// value is the worst single subspace seen, not a meaningless sum of
// maxima). Stats accumulates unit deltas with it, and the evaluation
// harness accumulates per-query snapshots into a per-run work total.
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.Subspaces += o.Subspaces
	s.SubspacesSkipped += o.SubspacesSkipped
	s.SubspacesBounded += o.SubspacesBounded
	s.Candidates += o.Candidates
	s.PrunedPrefixes += o.PrunedPrefixes
	s.Tuples += o.Tuples
	s.Offered += o.Offered
	s.CellTuples += o.CellTuples
	s.PrunedCellPrefixes += o.PrunedCellPrefixes
	s.RankPops += o.RankPops
	s.SampledOut += o.SampledOut
	s.AttrSimMemoHits += o.AttrSimMemoHits
	s.AttrSimMemoMisses += o.AttrSimMemoMisses
	if o.SubspaceCandidatesMax > s.SubspaceCandidatesMax {
		s.SubspaceCandidatesMax = o.SubspaceCandidatesMax
	}
	return s
}

// Stats collects one search's counters: the Snapshot.Add sum of every
// finished unit's delta. Parallel workers share one Stats and take its
// lock once per unit, never per candidate. The zero value is ready to
// use; a nil receiver is a no-op, so the algorithms report
// unconditionally when statistics are disabled.
type Stats struct {
	mu  sync.Mutex
	sum Snapshot
}

// Add adds a finished unit's delta.
func (s *Stats) Add(delta Snapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.sum = s.sum.Add(delta)
	s.mu.Unlock()
}

// Snapshot copies the counters. A nil receiver yields a zero snapshot.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sum
}
