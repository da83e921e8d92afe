// Package stats defines the per-search counters the algorithms expose for
// observability: how many subspaces a query touched, how many candidate
// tuples were scored versus pruned, how much work the cell and point
// enumeration phases did. The counters explain *why* a query was fast or
// slow — the companion to the wall-clock numbers the evaluation reports.
//
// Counters use atomics so parallel subspace workers can share one Stats.
package stats

import "sync/atomic"

// Stats collects per-search counters. The zero value is ready to use; nil
// receivers are safe no-ops so the hot paths stay branch-cheap when
// statistics are disabled.
type Stats struct {
	// Subspaces is the number of ac-subspaces searched (after skips).
	Subspaces atomic.Int64
	// SubspacesSkipped counts subspaces skipped before any enumeration
	// (missing category, pinned point elsewhere), whether the subspace
	// bound or the prep found it.
	SubspacesSkipped atomic.Int64
	// SubspacesBounded counts subspaces never prepared because their
	// bound could not beat the k-th result (the best-first stop).
	SubspacesBounded atomic.Int64
	// Candidates is the number of candidate points considered across all
	// dimension lists.
	Candidates atomic.Int64
	// PrunedPrefixes counts prefixes cut by an upper bound.
	PrunedPrefixes atomic.Int64
	// Tuples is the number of complete tuples scored (norm-checked).
	Tuples atomic.Int64
	// Offered is the number of tuples offered to the top-k.
	Offered atomic.Int64
	// CellTuples is the number of complete cell tuples LORA examined.
	CellTuples atomic.Int64
	// PrunedCellPrefixes counts cell prefixes cut by the cell bound.
	PrunedCellPrefixes atomic.Int64
	// RankPops is the number of rank-graph combinations popped.
	RankPops atomic.Int64
	// SampledOut is the number of candidate points discarded by
	// query-dependent sampling.
	SampledOut atomic.Int64
	// AttrSimMemoHits counts attribute-similarity lookups served from the
	// query-scoped memo table (cosines *not* recomputed).
	AttrSimMemoHits atomic.Int64
	// AttrSimMemoMisses counts attribute cosines actually computed while
	// the memo was enabled (lazy fills plus eager precompute).
	AttrSimMemoMisses atomic.Int64
	// SubspaceCandidatesMax tracks the largest per-subspace candidate
	// volume of the query — a max, not a sum: it measures how lopsided
	// the subspace decomposition was, the load-skew signal behind the
	// span tracer's straggler attribution. Only searched subspaces count,
	// so above one worker it depends on the schedule, as Subspaces,
	// Candidates and SubspacesBounded do.
	SubspaceCandidatesMax atomic.Int64
}

// nil-safe increment helpers; algorithms call these unconditionally.

// AddSubspaces increments the searched-subspace counter.
func (s *Stats) AddSubspaces(n int64) {
	if s != nil {
		s.Subspaces.Add(n)
	}
}

// AddSubspacesSkipped increments the skipped-subspace counter.
func (s *Stats) AddSubspacesSkipped(n int64) {
	if s != nil {
		s.SubspacesSkipped.Add(n)
	}
}

// AddSubspacesBounded increments the bounded-subspace counter.
func (s *Stats) AddSubspacesBounded(n int64) {
	if s != nil {
		s.SubspacesBounded.Add(n)
	}
}

// AddCandidates increments the candidate-point counter.
func (s *Stats) AddCandidates(n int64) {
	if s != nil {
		s.Candidates.Add(n)
	}
}

// AddPrunedPrefixes increments the pruned-prefix counter.
func (s *Stats) AddPrunedPrefixes(n int64) {
	if s != nil {
		s.PrunedPrefixes.Add(n)
	}
}

// AddTuples increments the scored-tuple counter.
func (s *Stats) AddTuples(n int64) {
	if s != nil {
		s.Tuples.Add(n)
	}
}

// AddOffered increments the offered-tuple counter.
func (s *Stats) AddOffered(n int64) {
	if s != nil {
		s.Offered.Add(n)
	}
}

// AddCellTuples increments the examined-cell-tuple counter.
func (s *Stats) AddCellTuples(n int64) {
	if s != nil {
		s.CellTuples.Add(n)
	}
}

// AddPrunedCellPrefixes increments the pruned-cell-prefix counter.
func (s *Stats) AddPrunedCellPrefixes(n int64) {
	if s != nil {
		s.PrunedCellPrefixes.Add(n)
	}
}

// AddRankPops increments the rank-graph pop counter.
func (s *Stats) AddRankPops(n int64) {
	if s != nil {
		s.RankPops.Add(n)
	}
}

// AddSampledOut increments the sampled-out counter.
func (s *Stats) AddSampledOut(n int64) {
	if s != nil {
		s.SampledOut.Add(n)
	}
}

// AddAttrSimMemoHits increments the memo-hit counter.
func (s *Stats) AddAttrSimMemoHits(n int64) {
	if s != nil {
		s.AttrSimMemoHits.Add(n)
	}
}

// AddAttrSimMemoMisses increments the memo-miss counter.
func (s *Stats) AddAttrSimMemoMisses(n int64) {
	if s != nil {
		s.AttrSimMemoMisses.Add(n)
	}
}

// RaiseSubspaceCandidates raises the per-subspace candidate maximum to
// n if n exceeds the current value (CAS loop: parallel subspace workers
// race to publish their totals).
func (s *Stats) RaiseSubspaceCandidates(n int64) {
	if s == nil {
		return
	}
	for {
		cur := s.SubspaceCandidatesMax.Load()
		if n <= cur || s.SubspaceCandidatesMax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Snapshot is a plain-value copy for reporting. The JSON tags are the
// wire names the search API uses; Each exposes the same names to the
// server's cumulative work metrics, so evaluation counters and
// production metrics share one set of definitions.
type Snapshot struct {
	Subspaces          int64 `json:"subspaces"`
	SubspacesSkipped   int64 `json:"subspaces_skipped"`
	SubspacesBounded   int64 `json:"subspaces_bounded"`
	Candidates         int64 `json:"candidates"`
	PrunedPrefixes     int64 `json:"pruned_prefixes"`
	Tuples             int64 `json:"tuples"`
	Offered            int64 `json:"offered"`
	CellTuples         int64 `json:"cell_tuples"`
	PrunedCellPrefixes int64 `json:"pruned_cell_prefixes"`
	RankPops           int64 `json:"rank_pops"`
	SampledOut         int64 `json:"sampled_out"`
	// The memo counters are cache telemetry, not enumeration work: hits
	// measure cosines *avoided*. bench.WorkTotal excludes the
	// "attr_sim_memo_" prefix for exactly that reason.
	AttrSimMemoHits   int64 `json:"attr_sim_memo_hits"`
	AttrSimMemoMisses int64 `json:"attr_sim_memo_misses"`
	// SubspaceCandidatesMax is a max, not a sum (the largest single
	// subspace's candidate volume); Add takes the larger of the two and
	// bench.WorkTotal excludes it from work sums by name.
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
// maxima). The evaluation harness uses Add to accumulate per-query
// snapshots into a per-run work total.
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

// Snapshot copies the counters. A nil receiver yields a zero snapshot.
func (s *Stats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	return Snapshot{
		Subspaces:             s.Subspaces.Load(),
		SubspacesSkipped:      s.SubspacesSkipped.Load(),
		SubspacesBounded:      s.SubspacesBounded.Load(),
		Candidates:            s.Candidates.Load(),
		PrunedPrefixes:        s.PrunedPrefixes.Load(),
		Tuples:                s.Tuples.Load(),
		Offered:               s.Offered.Load(),
		CellTuples:            s.CellTuples.Load(),
		PrunedCellPrefixes:    s.PrunedCellPrefixes.Load(),
		RankPops:              s.RankPops.Load(),
		SampledOut:            s.SampledOut.Load(),
		AttrSimMemoHits:       s.AttrSimMemoHits.Load(),
		AttrSimMemoMisses:     s.AttrSimMemoMisses.Load(),
		SubspaceCandidatesMax: s.SubspaceCandidatesMax.Load(),
	}
}
