package hsp

import (
	"sync/atomic"

	"spatialseq/internal/simil"
)

// insertionCutoff is the longest segment the head order insertion-sorts
// instead of partitioning it further.
const insertionCutoff = 12

// headOrder sorts one candidate list's head, its first n candidates,
// only as far as the DFS reads it: Paredes and Navarro's incremental
// quicksort ("Optimal Incremental Sorting", ALENEX 2006), which puts the
// first r of n candidates in order in O(n + r log r). The order is the
// candidate order (simil.Cand.Before: similarity descending, position
// ascending), a total order on a list, whose positions are distinct, so
// index i holds what a full sort of the head puts there. The tail behind the head
// never moves.
type headOrder struct {
	// ready is how far the list may be read: the head's sorted prefix,
	// or the whole list once the head is sorted. It only grows, and it
	// is stored after every candidate below it is in place, so a reader
	// reads below the value it loaded without taking the lock.
	ready atomic.Int64
	// n is the head's length, fixed by the prep.
	n int
	// ends is the pivot stack, guarded by the prep state's lock. Its top
	// bounds the unsorted segment that starts at the sorted prefix; each
	// entry is a pivot already in place, but for n at the bottom.
	ends []int
}

// reset starts the order of a list of total candidates whose first n
// are unsorted; n = 0 makes the whole list readable at once.
func (o *headOrder) reset(n, total int) {
	o.n = n
	o.ends = append(o.ends[:0], n)
	if n == 0 {
		o.ready.Store(int64(total))
	} else {
		o.ready.Store(0)
	}
}

// extend sorts dim's head until index i can be read, and returns how far
// dim's list may now be read. Chunk workers share p, so the sort runs
// under p's lock; an index in the tail needs none.
func (p *prepState) extend(dim, i int) int {
	o, list := &p.orders[dim], p.cands[dim]
	if i >= o.n {
		return len(list)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sorted := int(o.ready.Load())
	if sorted > i {
		return sorted // another worker extended it meanwhile
	}
	for sorted <= i {
		end := o.ends[len(o.ends)-1]
		if end-sorted > insertionCutoff {
			//lint:ignore hotpathalloc the stack grows to about twice log2 of the head, once per prep state; the pool keeps it across queries
			o.ends = append(o.ends, sorted+placePivot(list[sorted:end]))
			continue
		}
		insertionSort(list[sorted:end])
		o.ends = o.ends[:len(o.ends)-1]
		// The pivot at end, if the segment has one, is in place too.
		sorted = min(end+1, o.n)
	}
	if sorted == o.n {
		sorted = len(list)
	}
	o.ready.Store(int64(sorted))
	return sorted
}

// placePivot reorders seg, of at least three candidates, around the
// median of its first, middle and last, and returns the pivot's index:
// every candidate before it precedes it and every one after it follows.
func placePivot(seg []simil.Cand) int {
	last, mid := len(seg)-1, len(seg)/2
	if seg[mid].Before(seg[0]) {
		seg[mid], seg[0] = seg[0], seg[mid]
	}
	if seg[last].Before(seg[mid]) {
		seg[last], seg[mid] = seg[mid], seg[last]
		if seg[mid].Before(seg[0]) {
			seg[mid], seg[0] = seg[0], seg[mid]
		}
	}
	seg[0], seg[mid] = seg[mid], seg[0]
	pivot := seg[0]
	i, j := 1, last
	for {
		for i <= j && seg[i].Before(pivot) {
			i++
		}
		for i <= j && pivot.Before(seg[j]) {
			j--
		}
		if i > j {
			break
		}
		seg[i], seg[j] = seg[j], seg[i]
		i++
		j--
	}
	seg[0], seg[j] = seg[j], seg[0]
	return j
}

// insertionSort sorts a short segment in the candidate order.
func insertionSort(seg []simil.Cand) {
	for i := 1; i < len(seg); i++ {
		c := seg[i]
		j := i
		for ; j > 0 && c.Before(seg[j-1]); j-- {
			seg[j] = seg[j-1]
		}
		seg[j] = c
	}
}
