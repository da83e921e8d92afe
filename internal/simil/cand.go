package simil

import "slices"

// Cand is a candidate object for one example dimension: its dataset
// position and its attribute similarity to that dimension's example point.
// Candidate lists travel with their sims so the hot enumeration loops never
// re-derive them.
type Cand struct {
	Pos int32
	Sim float64
}

// Before reports whether a precedes b in the candidate order: similarity
// descending, then position ascending. It is the one order every
// candidate list is sorted in (SortCandidates, HSP's head order, LORA's
// buckets), and small enough to inline.
func (a Cand) Before(b Cand) bool {
	if a.Sim > b.Sim {
		return true
	}
	return !(a.Sim < b.Sim) && a.Pos < b.Pos
}

// SortCandidates sorts cands in the candidate order (Cand.Before).
func SortCandidates(cands []Cand) {
	slices.SortFunc(cands, func(a, b Cand) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		default:
			return 0
		}
	})
}
