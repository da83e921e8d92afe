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

// SortCandidates orders cands by similarity descending, position ascending.
func SortCandidates(cands []Cand) {
	slices.SortFunc(cands, func(a, b Cand) int {
		switch {
		case a.Sim > b.Sim:
			return -1
		case a.Sim < b.Sim:
			return 1
		case a.Pos < b.Pos:
			return -1
		case a.Pos > b.Pos:
			return 1
		default:
			return 0
		}
	})
}
