package testutil

import (
	"testing"

	"spatialseq/internal/obs/span"
	"spatialseq/internal/stats"
)

// PrepReference is what a sequential reference search records of the
// subspace preps of a search planned best-first.
type PrepReference struct {
	// Plan holds the plan's own counters: the memo misses and the
	// subspaces the bound pass dropped.
	Plan stats.Snapshot
	// Subs holds each planned subspace's prep delta, as the search's
	// prep span carries it, for the subspaces the stop cut too.
	Subs []stats.Snapshot
	// Prepared is how many subspaces the sequential run prepared: the
	// first Prepared of the plan order.
	Prepared int
}

// CheckPreps holds a search traced into tree to ref subspace by
// subspace. Preps are issued in plan order until the stop, so the run
// must have prepared a prefix of the plan, each subspace once, and at
// least ref.Prepared of them: at any worker count the threshold a
// subspace is issued against comes from a subset of the earlier
// subspaces' tuples, so it is no higher than the sequential run's.
// Every prep span named name must carry its subspace's reference delta
// exactly, and the run's counters, the enumeration ones aside (they
// depend on the schedule), must be the plan's plus its preps', with the
// rest counted bounded. tree must hold every span.
func CheckPreps(t testing.TB, label string, tree *span.Tree, name string, got stats.Snapshot, ref PrepReference) {
	t.Helper()
	if tree.Dropped != 0 {
		t.Fatalf("%s: the tracer dropped %d spans", label, tree.Dropped)
	}
	seen := make([]bool, len(ref.Subs))
	n := 0
	for _, nd := range tree.Nodes {
		if nd.Name != name {
			continue
		}
		sub := int(nd.Subspace)
		if sub < 0 || sub >= len(seen) || seen[sub] {
			t.Errorf("%s: %s span for subspace %d of %d, or a second one", label, name, sub, len(seen))
			continue
		}
		seen[sub] = true
		n++
		if nd.Work == nil || *nd.Work != ref.Subs[sub] {
			t.Errorf("%s: subspace %d prepared with %+v; reference %+v", label, sub, nd.Work, ref.Subs[sub])
		}
	}
	if n < ref.Prepared {
		t.Errorf("%s: %d subspaces prepared, fewer than the sequential run's %d", label, n, ref.Prepared)
	}
	want := ref.Plan
	for sub, ok := range seen[:n] {
		if !ok {
			t.Errorf("%s: %d subspaces prepared but not subspace %d: not a prefix of the plan order", label, n, sub)
		}
		want = want.Add(ref.Subs[sub])
	}
	want.SubspacesBounded = int64(len(seen) - n)
	if got = withoutEnumeration(got); got != want {
		t.Errorf("%s: prep counters %+v; plan plus its preps %+v", label, got, want)
	}
}

// withoutEnumeration zeroes EnumerationWork's counters.
func withoutEnumeration(s stats.Snapshot) stats.Snapshot {
	s.PrunedPrefixes, s.Tuples, s.Offered = 0, 0, 0
	s.CellTuples, s.PrunedCellPrefixes, s.RankPops = 0, 0, 0
	return s
}
