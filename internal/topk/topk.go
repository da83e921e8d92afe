// Package topk maintains the k best candidate tuples found during a search.
//
// It is a bounded min-heap keyed by similarity with two extra duties the
// algorithms rely on:
//
//   - deterministic tie-breaking (by tuple identity), so exact algorithms
//     return the same result set regardless of enumeration order, and
//   - tuple deduplication, so the same candidate discovered through two
//     paths occupies one slot only.
package topk

import (
	"container/heap"
	"encoding/binary"
	"math"
	"sort"
)

// Entry is one result candidate: the tuple (dataset positions, one per
// example dimension) and its similarity to the example.
type Entry struct {
	Tuple []int32
	Sim   float64
}

// Heap keeps the top-k entries by similarity. The zero value is unusable;
// call New.
type Heap struct {
	k    int
	h    entryHeap
	keys map[string]struct{}
}

// New returns a Heap retaining the k most similar entries. k must be >= 1.
func New(k int) *Heap {
	t := new(Heap)
	t.init(k)
	return t
}

// init readies the zero t as New describes.
func (t *Heap) init(k int) {
	t.k, t.keys = max(k, 1), make(map[string]struct{})
}

// K returns the heap's capacity.
func (t *Heap) K() int { return t.k }

// Len returns the number of entries currently held.
func (t *Heap) Len() int { return len(t.h) }

// Full reports whether k entries are held.
func (t *Heap) Full() bool { return len(t.h) >= t.k }

// Threshold returns the smallest similarity currently in the heap, or
// -Inf while the heap is not yet full. A candidate with similarity <=
// Threshold (and losing the tie-break) cannot enter a full heap, which is
// exactly the R_min pruning test of Algorithms 1 and 4.
//
//seq:hotpath
func (t *Heap) Threshold() float64 {
	if !t.Full() {
		return math.Inf(-1)
	}
	return t.h[0].e.Sim
}

// Offer proposes a tuple. It copies the tuple when retaining it, so callers
// may reuse their buffer. It reports whether the entry was inserted.
//
// The common case — a full heap rejecting a candidate strictly below the
// threshold — allocates nothing: the tuple key is only materialised once
// the candidate could actually enter.
//
//seq:hotpath
func (t *Heap) Offer(tuple []int32, sim float64) bool {
	if t.Full() && sim < t.h[0].e.Sim {
		// Strictly below the threshold can never enter: the tie-break only
		// decides exact similarity ties, and a duplicate of a held tuple
		// would be rejected either way. (A NaN sim falls through — every
		// comparison with NaN is false — and loses in beats as before.)
		return false
	}
	key := tupleKey(tuple)
	if _, dup := t.keys[key]; dup {
		return false
	}
	if t.Full() {
		worst := &t.h[0]
		if !beats(sim, key, worst.e.Sim, worst.key) {
			return false
		}
		delete(t.keys, worst.key)
		//lint:ignore hotpathalloc retained-entry copy; runs only when a candidate actually enters the top-k, not per rejected offer
		tp := make([]int32, len(tuple))
		copy(tp, tuple)
		t.h[0] = item{e: Entry{Tuple: tp, Sim: sim}, key: key}
		heap.Fix(&t.h, 0)
		t.keys[key] = struct{}{}
		return true
	}
	//lint:ignore hotpathalloc retained-entry copy; runs at most k times while the heap fills
	tp := make([]int32, len(tuple))
	copy(tp, tuple)
	//lint:ignore hotpathalloc container/heap boxes the item; fill path runs at most k times
	heap.Push(&t.h, item{e: Entry{Tuple: tp, Sim: sim}, key: key})
	t.keys[key] = struct{}{}
	return true
}

// WouldAccept reports whether a candidate with similarity sim could enter
// the heap. It is the pruning test used against upper bounds: a subtree
// whose bound fails WouldAccept cannot contribute.
//
// Equality passes. Callers feed WouldAccept upper bounds, and a subtree
// whose bound equals the current threshold can still hold a tuple that
// scores exactly the threshold yet enters via the deterministic tie-break
// (smaller tuple key beats the incumbent in beats). Pruning such subtrees
// would make exact algorithms return tie-sets that depend on enumeration
// order; admitting them keeps brute force, DFS-Prune and HSP (sequential
// or parallel) tuple-for-tuple identical. Offer still rejects candidates
// that lose the tie-break, so equality here costs at most the descent, not
// correctness.
//
//seq:hotpath
func (t *Heap) WouldAccept(sim float64) bool {
	return !t.Full() || sim >= t.h[0].e.Sim
}

// Results returns the held entries ordered best-first (similarity
// descending, ties by tuple identity ascending).
func (t *Heap) Results() []Entry {
	items := make([]item, len(t.h))
	copy(items, t.h)
	sort.SliceStable(items, func(i, j int) bool {
		return beats(items[i].e.Sim, items[i].key, items[j].e.Sim, items[j].key)
	})
	out := make([]Entry, len(items))
	for i, it := range items {
		out[i] = it.e
	}
	return out
}

// beats reports whether candidate (sa, ka) outranks (sb, kb): higher
// similarity wins; on exact ties the lexicographically smaller tuple key
// wins, making results independent of enumeration order.
//
//seq:hotpath
func beats(sa float64, ka string, sb float64, kb string) bool {
	if sa != sb {
		return sa > sb
	}
	return ka < kb
}

func tupleKey(tuple []int32) string {
	//lint:ignore hotpathalloc key bytes; Offer's fast reject keeps this off the strictly-below-threshold path
	buf := make([]byte, 4*len(tuple))
	for i, v := range tuple {
		binary.BigEndian.PutUint32(buf[4*i:], uint32(v))
	}
	//lint:ignore hotpathalloc key string; Offer's fast reject keeps this off the strictly-below-threshold path
	return string(buf)
}

type item struct {
	e   Entry
	key string
}

// entryHeap is a min-heap: the root is the entry that Offer evicts first,
// i.e. the one every current member beats.
type entryHeap []item

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	return beats(h[j].e.Sim, h[j].key, h[i].e.Sim, h[i].key)
}
func (h entryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
