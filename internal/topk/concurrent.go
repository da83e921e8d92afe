package topk

import (
	"math"
	"sync"
	"sync/atomic"
)

// Sink is the result-collection interface the search algorithms write to;
// Heap implements it for sequential searches and Concurrent for parallel
// ones.
type Sink interface {
	// K returns the result capacity.
	K() int
	// WouldAccept reports whether a candidate with this similarity could
	// still enter the results. Implementations may answer with a slightly
	// stale threshold as long as staleness is conservative (only ever
	// admitting more candidates, never rejecting one that would fit).
	WouldAccept(sim float64) bool
	// Offer proposes a tuple (copied if retained).
	Offer(tuple []int32, sim float64) bool
}

// ResultSink is a Sink whose collected entries can be read back. HSP and
// LORA hold their collector as one: a Heap on one worker, a Concurrent
// above one.
type ResultSink interface {
	Sink
	// Results returns the held entries ordered best-first (similarity
	// descending, ties by tuple identity ascending).
	Results() []Entry
}

var (
	_ ResultSink = (*Heap)(nil)
	_ ResultSink = (*Concurrent)(nil)
)

// Concurrent is a thread-safe top-k sink for parallel subspace searches.
// WouldAccept is lock-free against an atomically published threshold,
// which may lag behind the true one — pruning with a stale (lower)
// threshold only admits extra candidates, preserving exactness. Offer
// rejects a tuple strictly below that threshold without the mutex and
// takes the mutex for every other tuple.
type Concurrent struct {
	mu  sync.Mutex
	h   *Heap
	thr atomic.Uint64 // math.Float64bits of the current threshold
}

// NewConcurrent returns a Concurrent sink keeping the top k entries.
func NewConcurrent(k int) *Concurrent {
	c := &Concurrent{h: New(k)}
	c.thr.Store(math.Float64bits(math.Inf(-1)))
	return c
}

// K returns the sink's capacity.
func (c *Concurrent) K() int { return c.h.K() }

// WouldAccept reports whether sim could enter the results, using the
// lock-free threshold snapshot. As with Heap.WouldAccept, equality passes:
// a bound equal to the threshold may still cover a tuple that wins the
// deterministic tie-break, and admitting it is what makes parallel
// searches return the same tuples as sequential ones.
//
//seq:hotpath
func (c *Concurrent) WouldAccept(sim float64) bool {
	return sim >= math.Float64frombits(c.thr.Load())
}

// Threshold returns the currently published pruning threshold. Because
// every store happens under the Offer lock and the heap threshold only
// ever rises, the sequence of values any reader observes is
// monotonically non-decreasing.
func (c *Concurrent) Threshold() float64 {
	return math.Float64frombits(c.thr.Load())
}

// Offer proposes a tuple under the lock and republishes the threshold.
// A tuple strictly below the published threshold is rejected before the
// lock: the heap's threshold only rises, so Heap.Offer's fast path would
// reject it too. NaN and ties take the lock.
//
//seq:hotpath
func (c *Concurrent) Offer(tuple []int32, sim float64) bool {
	if sim < math.Float64frombits(c.thr.Load()) {
		return false
	}
	c.mu.Lock()
	inserted := c.h.Offer(tuple, sim)
	c.thr.Store(math.Float64bits(c.h.Threshold()))
	c.mu.Unlock()
	return inserted
}

// Results returns the held entries ordered best-first.
func (c *Concurrent) Results() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h.Results()
}

// Len returns the number of entries currently held.
func (c *Concurrent) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h.Len()
}
