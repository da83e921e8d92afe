package rankgraph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func benchLists(m, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]float64, m)
	for d := range lists {
		l := make([]float64, n)
		for i := range l {
			l[i] = rng.Float64()
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(l)))
		lists[d] = l
	}
	return lists
}

// pop Resets e to lists and pops up to n combinations.
func pop(e *Enumerator, lists [][]float64, n int) {
	e.Reset(lists)
	for p := 0; p < n; p++ {
		if _, _, ok := e.Next(); !ok {
			return
		}
	}
}

// Each benchmark runs its op once before the timer starts, so the
// enumerator's storage has grown to its steady state and a short
// -benchtime reports the steady allocs/op.

// BenchmarkTop10 measures LORA's per-cell-tuple workload: pop the ten best
// combinations from m sorted lists of xi entries.
func BenchmarkTop10(b *testing.B) {
	for _, m := range []int{2, 3, 5} {
		lists := benchLists(m, 10, 7)
		b.Run(sizeName(m), func(b *testing.B) {
			e := New(lists)
			pop(e, lists, 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pop(e, lists, 10)
			}
		})
	}
}

// BenchmarkExhaustive drains a full product space.
func BenchmarkExhaustive(b *testing.B) {
	lists := benchLists(3, 20, 9) // 8000 combinations
	e := New(lists)
	pop(e, lists, math.MaxInt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop(e, lists, math.MaxInt)
	}
}

// BenchmarkCellTupleStream reproduces LORA's pattern on one worker: one
// large space grows the visited set, then every op Resets to the next
// of a stream of 3 x 10 cell-tuple spaces and pops 13 combinations.
func BenchmarkCellTupleStream(b *testing.B) {
	large := benchLists(4, 30, 3)
	e := New(large)
	pop(e, large, 20000)
	stream := make([][][]float64, 64)
	for i := range stream {
		stream[i] = benchLists(3, 10, int64(i))
	}
	pop(e, stream[0], 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop(e, stream[i%len(stream)], 13)
	}
}

func sizeName(m int) string {
	return "m=" + string(rune('0'+m))
}
