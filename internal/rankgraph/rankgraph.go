// Package rankgraph implements the rank-representation graph of LORA's
// point-tuple enumeration (paper Section III-C2, Lemma 2, Algorithm 5).
//
// Given m lists of scores, each sorted in descending order, every
// combination (one index per list) is a graph node identified by its rank
// vector; [0,0,...,0] is the root r0. A node's out-neighbours increment a
// single rank by one. Lemma 2 shows that enumerating nodes by ascending
// shortest-path distance from r0 — with edge weight score(t) − score(v) —
// is the same as enumerating combinations by descending total score.
//
// Enumerator realises that traversal as a lazy best-first search: Next
// yields rank vectors in non-increasing total-score order, visiting each
// combination at most once, and materialises only the frontier (O(visited)
// memory rather than the full product space).
//
// The enumerator sits on LORA's innermost hot path (one instance per cell
// tuple), so it is engineered to amortise allocations: visited-set keys
// are mixed-radix integers in a generation-stamped open-addressing table
// (falling back to strings only for astronomically large product spaces),
// rank-vector storage is recycled through a freelist, and Reset reuses
// all internal state for the next cell tuple, emptying the visited set
// in O(1).
package rankgraph

import (
	"math"
	"math/bits"
)

// Enumerator yields index combinations over m descending score lists in
// non-increasing total-score order.
type Enumerator struct {
	lists [][]float64
	pq    []node
	ranks []int32 // scratch returned by Next; callers must not retain
	free  [][]int32

	// visited set: mixed-radix integer keys when the product space fits
	// in uint64, string keys otherwise.
	strides []uint64
	seen    keySet
	seenStr map[string]struct{}

	closed bool
}

type node struct {
	ranks []int32
	total float64
	key   uint64 // mixed-radix key of ranks; unused on the string path
}

// New returns an enumerator over the given descending score lists. Any
// empty list makes the product space empty (Next returns false
// immediately). Lists are not copied; callers must not mutate them while
// enumerating. New panics if a list is not sorted descending — that would
// silently break the enumeration order invariant.
func New(lists [][]float64) *Enumerator {
	e := &Enumerator{}
	e.Reset(lists)
	return e
}

// Reset re-arms the enumerator over a new set of lists, reusing all
// internal storage. Semantics match New.
func (e *Enumerator) Reset(lists [][]float64) {
	e.lists = lists
	// reclaim the leftover frontier's rank storage before dropping it
	for _, n := range e.pq {
		//lint:ignore hotpathalloc freelist recycle; bounded by the frontier and reused across Resets
		e.free = append(e.free, n.ranks)
	}
	e.pq = e.pq[:0]
	e.closed = false
	e.seen.reset()
	if e.seenStr != nil {
		clear(e.seenStr)
	}

	for _, l := range lists {
		if len(l) == 0 {
			e.closed = true
			return
		}
		for i := 1; i < len(l); i++ {
			if l[i] > l[i-1] {
				//lint:ignore panicfree documented New/Reset contract: an unsorted list is a caller bug that would silently corrupt enumeration order
				panic("rankgraph: score list not sorted descending")
			}
		}
	}

	// mixed-radix strides: key = sum ranks[d]*strides[d], unique because
	// ranks[d] < len(lists[d]).
	if cap(e.strides) < len(lists) {
		//lint:ignore hotpathalloc grow-once scratch; reused across Resets
		e.strides = make([]uint64, len(lists))
	}
	e.strides = e.strides[:len(lists)]
	stride := uint64(1)
	intKeys := true
	for d, l := range lists {
		e.strides[d] = stride
		next, overflow := mulOverflow(stride, uint64(len(l)))
		if overflow {
			intKeys = false
			break
		}
		stride = next
	}
	if intKeys {
		e.seenStr = nil
	} else {
		if e.seenStr == nil {
			//lint:ignore hotpathalloc string-key fallback for overflowing product spaces; created once and cleared on Reset
			e.seenStr = make(map[string]struct{})
		}
		e.strides = e.strides[:0]
	}

	root := e.newRanks(len(lists))
	for i := range root {
		root[i] = 0
	}
	var total float64
	for _, l := range lists {
		total += l[0]
	}
	//lint:ignore hotpathalloc root push, once per Reset; pq storage is reused
	e.pq = append(e.pq, node{ranks: root, total: total})
	if cap(e.ranks) < len(lists) {
		//lint:ignore hotpathalloc grow-once scratch; reused across Resets
		e.ranks = make([]int32, len(lists))
	}
	e.ranks = e.ranks[:len(lists)]
}

// Next returns the next combination and its total score. The returned
// slice is reused between calls; copy it to retain it. ok is false when
// the space is exhausted.
func (e *Enumerator) Next() (ranks []int32, total float64, ok bool) {
	if e.closed || len(e.pq) == 0 {
		return nil, 0, false
	}
	n := e.pop()
	copy(e.ranks, n.ranks)
	// Expand out-neighbours: increment each dimension's rank by one.
	for d := range n.ranks {
		r := n.ranks[d] + 1
		if int(r) >= len(e.lists[d]) {
			continue
		}
		var key uint64
		if e.seenStr == nil {
			key = n.key + e.strides[d]
			if e.seen.insert(key) {
				continue
			}
		} else if e.markVisitedStr(n.ranks, d, r) {
			continue
		}
		child := e.newRanks(len(n.ranks))
		copy(child, n.ranks)
		child[d] = r
		childTotal := n.total - e.lists[d][r-1] + e.lists[d][r]
		//lint:ignore hotpathalloc frontier append; pq storage is reused across Resets, growth amortises out
		e.pq = append(e.pq, node{ranks: child, total: childTotal, key: key})
		e.up(len(e.pq) - 1)
	}
	//lint:ignore hotpathalloc freelist recycle; bounded by the frontier and reused across Resets
	e.free = append(e.free, n.ranks)
	return e.ranks, n.total, true
}

// markVisitedStr records the child of ranks with dimension d bumped to r
// in the string-keyed visited set; it reports whether the child was
// already present.
func (e *Enumerator) markVisitedStr(ranks []int32, d int, r int32) bool {
	//lint:ignore hotpathalloc string-key fallback; only for product spaces overflowing uint64 mixed-radix keys
	buf := make([]byte, 0, 4*len(ranks))
	for i, v := range ranks {
		if i == d {
			v = r
		}
		//lint:ignore hotpathalloc appends into buf's preallocated 4*m capacity; never grows
		buf = append(buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	//lint:ignore hotpathalloc string-key fallback; only for product spaces overflowing uint64 mixed-radix keys
	key := string(buf)
	if _, dup := e.seenStr[key]; dup {
		return true
	}
	e.seenStr[key] = struct{}{}
	return false
}

func (e *Enumerator) newRanks(m int) []int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		if cap(s) >= m {
			return s[:m]
		}
	}
	//lint:ignore hotpathalloc freelist miss; rank storage recycles, so makes amortise to zero per Next
	return make([]int32, m)
}

// pop removes and returns the max-total node.
func (e *Enumerator) pop() node {
	top := e.pq[0]
	last := len(e.pq) - 1
	e.pq[0] = e.pq[last]
	e.pq = e.pq[:last]
	if last > 0 {
		e.down(0)
	}
	return top
}

// up and down maintain a max-heap on node.total.
func (e *Enumerator) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if e.pq[parent].total >= e.pq[i].total {
			break
		}
		e.pq[parent], e.pq[i] = e.pq[i], e.pq[parent]
		i = parent
	}
}

func (e *Enumerator) down(i int) {
	n := len(e.pq)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && e.pq[l].total > e.pq[largest].total {
			largest = l
		}
		if r < n && e.pq[r].total > e.pq[largest].total {
			largest = r
		}
		if largest == i {
			return
		}
		e.pq[i], e.pq[largest] = e.pq[largest], e.pq[i]
		i = largest
	}
}

// keySet is an open-addressing set of mixed-radix keys with linear
// probing. Each slot carries the generation that wrote it, and only
// slots of the current generation are members, so reset is a counter
// bump; the stamps are cleared only when the counter wraps. The table
// grows with the peak number of keys one enumeration visits, not with
// the product space, and never shrinks.
type keySet struct {
	keys  []uint64
	gens  []uint32
	gen   uint32 // current generation; 0 stamps a never-written slot
	n     int    // members: slots stamped gen
	shift uint   // 64 - log2(len(keys))
}

// keySetMinSize is the first table size (a power of two).
const keySetMinSize = 64

// reset empties the set.
func (k *keySet) reset() {
	k.n = 0
	if k.gen++; k.gen == 0 {
		clear(k.gens)
		k.gen = 1
	}
}

// insert adds key and reports whether it was already a member.
func (k *keySet) insert(key uint64) bool {
	if 2*(k.n+1) > len(k.keys) {
		k.grow()
	}
	mask := uint64(len(k.keys) - 1)
	for i := (key * 0x9e3779b97f4a7c15) >> k.shift; ; i = (i + 1) & mask {
		if k.gens[i] != k.gen {
			k.keys[i], k.gens[i] = key, k.gen
			k.n++
			return false
		}
		if k.keys[i] == key {
			return true
		}
	}
}

// grow doubles the table, keeping the current generation's members.
func (k *keySet) grow() {
	keys, gens := k.keys, k.gens
	size := max(2*len(keys), keySetMinSize)
	//lint:ignore hotpathalloc doubling growth up to the peak visited count; reused across Resets
	k.keys = make([]uint64, size)
	//lint:ignore hotpathalloc doubling growth up to the peak visited count; reused across Resets
	k.gens = make([]uint32, size)
	k.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	k.n = 0
	for i, g := range gens {
		if g == k.gen {
			k.insert(keys[i])
		}
	}
}

func mulOverflow(a, b uint64) (uint64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	c := a * b
	return c, c/b != a || c > math.MaxUint64/2 // keep headroom for key sums
}
