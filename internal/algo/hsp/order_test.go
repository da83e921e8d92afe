package hsp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spatialseq/internal/algo/sched"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/testutil"
)

// randCands returns n candidates at distinct positions whose
// similarities take only levels distinct values, so ties are common.
func randCands(rng *rand.Rand, n, levels int) []simil.Cand {
	out := make([]simil.Cand, n)
	for i, pos := range rng.Perm(n) {
		out[i] = simil.Cand{Pos: int32(pos), Sim: float64(rng.Intn(levels)) / float64(levels)}
	}
	return out
}

// readOrder reads dim's list over [lo, hi) as dfs does, extending the
// head order on reaching its ready length, and passes each index and
// the ready length it was read under to visit.
func readOrder(p *prepState, dim, lo, hi int, visit func(i, ready int)) {
	ready := int(p.orders[dim].ready.Load())
	for i := lo; i < hi; i++ {
		if i >= ready {
			ready = p.extend(dim, i)
		}
		visit(i, ready)
	}
}

// TestHeadOrderMatchesSort reads heads of every size around the
// insertion cutoff, and of thousands, from their start and from the
// middle as a stolen chunk does. Every index read must hold what
// simil.SortCandidates puts there, the sort must not run more than one
// short segment past the index read, and nothing past the head may
// move.
func TestHeadOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(281))
	for _, n := range []int{0, 1, 2, insertionCutoff - 1, insertionCutoff, insertionCutoff + 1, insertionCutoff + 2, 100, 4000} {
		for _, tail := range []int{0, 1, 50} {
			orig := randCands(rng, n+tail, 7)
			want := slices.Clone(orig)
			simil.SortCandidates(want[:n])
			// Chunk starts: the head's start, its middle, its last
			// index, the tail's first and last.
			for _, lo := range []int{0, n / 2, n - 1, n, n + tail - 1} {
				if lo < 0 || lo >= n+tail {
					continue
				}
				label := fmt.Sprintf("head %d tail %d from %d", n, tail, lo)
				list := slices.Clone(orig)
				p := &prepState{cands: [][]simil.Cand{list}, orders: make([]headOrder, 1)}
				p.orders[0].reset(n, len(list))
				check := func(i, ready int) {
					if list[i] != want[i] {
						t.Fatalf("%s: index %d holds %+v, the sorted head %+v", label, i, list[i], want[i])
					}
					if ready < n && ready > i+insertionCutoff+1 {
						t.Fatalf("%s: reading index %d sorted up to %d", label, i, ready)
					}
				}
				readOrder(p, 0, lo, len(list), check)
				if lo >= n && !slices.Equal(list[:n], orig[:n]) {
					t.Fatalf("%s: reading the tail moved the head", label)
				}
				// Then the chunk before it, as another worker reads it.
				readOrder(p, 0, 0, lo, check)
				if !slices.Equal(list[n:], orig[n:]) {
					t.Fatalf("%s: the tail moved", label)
				}
			}
		}
	}
}

// TestSharedHeadOrderExtension has eight workers read and extend the
// same large lists at once: with partitioning disabled the one subspace
// holds every object, its heads hold every candidate (the top-k is empty
// when it is prepared), and chunks of one root send every worker down
// the same dimension-1 and dimension-2 lists. The answers must be
// tuple-identical to the sequential search's; under -race this also
// checks that readers stay below the ready length they loaded.
func TestSharedHeadOrderExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(282))
	ds := testutil.RandDataset(rng, 3000, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 20, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	want, err := Search(context.Background(), ds, ix, q, Options{DisablePartition: true})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		got, err := Search(context.Background(), ds, ix, q, Options{
			DisablePartition: true,
			Parallelism:      8,
			Steal:            sched.Tuning{ChunkSize: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: answers %v, sequential %v", run, got, want)
		}
	}
}

// BenchmarkHeadOrder reads a head of 5,000 candidates to 10, 25, 60 and
// 100 % of its length, in the lazy order against a full sort with
// simil.SortCandidates.
func BenchmarkHeadOrder(b *testing.B) {
	const n = 5000
	rng := rand.New(rand.NewSource(283))
	orig := randCands(rng, n, 1<<30)
	list := make([]simil.Cand, n)
	p := &prepState{cands: [][]simil.Cand{list}, orders: make([]headOrder, 1)}
	var sink float64
	for _, pct := range []int{10, 25, 60, 100} {
		r := n * pct / 100
		b.Run(fmt.Sprintf("lazy/%d%%", pct), func(b *testing.B) {
			for range b.N {
				copy(list, orig)
				p.orders[0].reset(n, n)
				readOrder(p, 0, 0, r, func(i, _ int) { sink += list[i].Sim })
			}
		})
		b.Run(fmt.Sprintf("sort/%d%%", pct), func(b *testing.B) {
			for range b.N {
				copy(list, orig)
				simil.SortCandidates(list)
				for _, c := range list[:r] {
					sink += c.Sim
				}
			}
		})
	}
	_ = sink
}
