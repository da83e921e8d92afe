package stats

import "testing"

func TestSnapshotAdd(t *testing.T) {
	var s Stats
	s.AddSubspaces(2)
	s.AddCandidates(10)
	s.AddTuples(3)
	s.AddSubspacesBounded(4)
	a := s.Snapshot()
	var s2 Stats
	s2.AddSubspaces(1)
	s2.AddCandidates(5)
	s2.AddRankPops(7)
	b := s2.Snapshot()

	sum := a.Add(b)
	if sum.Subspaces != 3 || sum.Candidates != 15 || sum.Tuples != 3 || sum.RankPops != 7 {
		t.Errorf("Add = %+v", sum)
	}
	// Add must cover every counter Each exposes: the field-wise sum of a
	// snapshot with itself doubles every named value — except the
	// documented max-semantics counter, which Add keeps unchanged.
	doubled := a.Add(a)
	i := 0
	av := make(map[string]int64)
	a.Each(func(name string, v int64) { av[name] = v })
	doubled.Each(func(name string, v int64) {
		want := 2 * av[name]
		if name == "subspace_candidates_max" {
			want = av[name]
		}
		if v != want {
			t.Errorf("counter %s: Add(a,a) = %d, want %d", name, v, want)
		}
		i++
	})
	if i != 14 {
		t.Errorf("Each visited %d counters, want 14", i)
	}
}

func TestSubspaceCandidatesMax(t *testing.T) {
	var s Stats
	s.RaiseSubspaceCandidates(10)
	s.RaiseSubspaceCandidates(4) // lower value must not win
	s.RaiseSubspaceCandidates(25)
	if got := s.Snapshot().SubspaceCandidatesMax; got != 25 {
		t.Errorf("SubspaceCandidatesMax = %d, want 25", got)
	}
	var nilStats *Stats
	nilStats.RaiseSubspaceCandidates(99) // nil-safe no-op
	a := Snapshot{SubspaceCandidatesMax: 7}
	b := Snapshot{SubspaceCandidatesMax: 12}
	if got := a.Add(b).SubspaceCandidatesMax; got != 12 {
		t.Errorf("Add max = %d, want 12 (max, not sum)", got)
	}
	if got := b.Add(a).SubspaceCandidatesMax; got != 12 {
		t.Errorf("Add max (reversed) = %d, want 12", got)
	}
}

func TestNilStatsSafe(t *testing.T) {
	var s *Stats
	s.AddSubspaces(1)
	s.AddOffered(1)
	if snap := s.Snapshot(); snap != (Snapshot{}) {
		t.Errorf("nil Stats snapshot = %+v, want zero", snap)
	}
}
