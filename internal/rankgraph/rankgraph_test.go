package rankgraph

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func collect(e *Enumerator, limit int) (ranksOut [][]int32, totals []float64) {
	for len(totals) < limit {
		r, total, ok := e.Next()
		if !ok {
			break
		}
		cp := make([]int32, len(r))
		copy(cp, r)
		ranksOut = append(ranksOut, cp)
		totals = append(totals, total)
	}
	return
}

func TestSingleListOrdering(t *testing.T) {
	e := New([][]float64{{0.9, 0.5, 0.1}})
	ranks, totals := collect(e, 10)
	if len(ranks) != 3 {
		t.Fatalf("got %d combinations, want 3", len(ranks))
	}
	want := []float64{0.9, 0.5, 0.1}
	for i := range want {
		if totals[i] != want[i] {
			t.Errorf("totals[%d] = %g, want %g", i, totals[i], want[i])
		}
		if ranks[i][0] != int32(i) {
			t.Errorf("ranks[%d] = %v", i, ranks[i])
		}
	}
}

func TestTwoListsExhaustiveDescending(t *testing.T) {
	lists := [][]float64{{0.8, 0.2}, {0.7, 0.6, 0.1}}
	e := New(lists)
	ranks, totals := collect(e, 100)
	if len(ranks) != 6 {
		t.Fatalf("got %d combinations, want 6", len(ranks))
	}
	for i := 1; i < len(totals); i++ {
		if totals[i] > totals[i-1]+1e-12 {
			t.Errorf("totals not non-increasing at %d: %v", i, totals)
		}
	}
	// every combination appears exactly once
	seen := map[[2]int32]bool{}
	for _, r := range ranks {
		key := [2]int32{r[0], r[1]}
		if seen[key] {
			t.Errorf("duplicate combination %v", r)
		}
		seen[key] = true
	}
	// root first
	if ranks[0][0] != 0 || ranks[0][1] != 0 {
		t.Errorf("first pop = %v, want root", ranks[0])
	}
	if math.Abs(totals[0]-1.5) > 1e-12 {
		t.Errorf("root total = %g", totals[0])
	}
}

func TestEmptyListShortCircuits(t *testing.T) {
	e := New([][]float64{{0.5}, {}})
	if _, _, ok := e.Next(); ok {
		t.Error("empty list should yield no combinations")
	}
}

func TestUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ascending list")
		}
	}()
	New([][]float64{{0.1, 0.9}})
}

func TestTiesAllEnumerated(t *testing.T) {
	e := New([][]float64{{0.5, 0.5}, {0.5, 0.5}})
	_, totals := collect(e, 100)
	if len(totals) != 4 {
		t.Fatalf("got %d combinations with ties, want 4", len(totals))
	}
	for _, tt := range totals {
		if tt != 1.0 {
			t.Errorf("total = %g, want 1.0", tt)
		}
	}
}

func TestMatchesBruteForceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		m := 2 + rng.Intn(3)
		lists := make([][]float64, m)
		total := 1
		for d := range lists {
			n := 1 + rng.Intn(4)
			total *= n
			l := make([]float64, n)
			for i := range l {
				l[i] = rng.Float64()
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(l)))
			lists[d] = l
		}
		e := New(lists)
		_, got := collect(e, total+10)
		if len(got) != total {
			t.Fatalf("trial %d: enumerated %d of %d combinations", trial, len(got), total)
		}
		// brute force all sums, sorted descending
		var want []float64
		var rec func(d int, sum float64)
		rec = func(d int, sum float64) {
			if d == m {
				want = append(want, sum)
				return
			}
			for _, v := range lists[d] {
				rec(d+1, sum+v)
			}
		}
		rec(0, 0)
		sort.Sort(sort.Reverse(sort.Float64Slice(want)))
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: order diverges at %d: got %g want %g", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLazyFrontierDoesNotExplode(t *testing.T) {
	// 4 lists of 50 entries = 6.25M combinations; popping only 100 must
	// stay cheap and allocate only the visited frontier.
	lists := make([][]float64, 4)
	for d := range lists {
		l := make([]float64, 50)
		for i := range l {
			l[i] = 1 - float64(i)*0.01
		}
		lists[d] = l
	}
	e := New(lists)
	_, totals := collect(e, 100)
	if len(totals) != 100 {
		t.Fatalf("popped %d", len(totals))
	}
	for i := 1; i < len(totals); i++ {
		if totals[i] > totals[i-1]+1e-12 {
			t.Fatal("ordering violated")
		}
	}
	if e.seen.n > 100*4+1 || len(e.seen.keys) > 4*(100*4+1) {
		t.Errorf("visited set grew to %d keys in %d slots, expected <= pops*m+1 keys", e.seen.n, len(e.seen.keys))
	}
}

// TestResetMatchesFresh: one Enumerator, Reset across a sequence of
// spaces, pops exactly the ranks and totals a fresh New pops on each: a
// large space that grows the visited set, a stream of 3 x 10 spaces
// like LORA's cell tuples, an empty space and one whose keys overflow
// uint64. The visited set's generation starts the stream so that it
// wraps at the last space, the large one again: its first pass's stamps
// carry the generation the wrap restarts at, and would read as visited
// if the wrap did not clear them.
func TestResetMatchesFresh(t *testing.T) {
	large := benchLists(4, 30, 1)
	spaces := [][][]float64{large}
	limits := []int{3000}
	for i := 0; i < 200; i++ {
		spaces = append(spaces, benchLists(3, 10, int64(100+i)))
		limits = append(limits, 13+987*btoi(i%50 == 0))
	}
	spaces = append(spaces, [][]float64{{0.5, 0.4}, {}}, benchLists(16, 20, 5), large)
	limits = append(limits, 10, 200, 3000)

	e := New(large)
	wrapped := false
	for i, lists := range spaces {
		if i > 0 {
			if i == 1 {
				e.seen.gen = math.MaxUint32 - uint32(len(spaces)-2)
			}
			gen := e.seen.gen
			e.Reset(lists)
			wrapped = wrapped || e.seen.gen < gen
		}
		got, gotTotals := collect(e, limits[i])
		want, wantTotals := collect(New(lists), limits[i])
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotTotals, wantTotals) {
			t.Fatalf("space %d: the reset enumerator popped %d combinations that differ from a fresh one's %d",
				i, len(got), len(want))
		}
	}
	if !wrapped {
		t.Fatal("the visited set's generation never wrapped")
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestNextReusesRankBuffer(t *testing.T) {
	e := New([][]float64{{0.9, 0.1}})
	r1, _, _ := e.Next()
	v := r1[0]
	r2, _, _ := e.Next()
	if &r1[0] != &r2[0] {
		t.Skip("buffer reuse is an implementation detail; pointers differ")
	}
	_ = v
}
