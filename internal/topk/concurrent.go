package topk

import (
	"math"
	"sync"
	"sync/atomic"
)

// Concurrent is the top-k sink HSP and LORA collect results into, at
// every worker count: one worker or many share one Concurrent. It keeps
// a Heap behind a mutex. WouldAccept is lock-free against an atomically
// published threshold, which may lag behind the true one — pruning with
// a stale (lower) threshold only admits extra candidates, preserving
// exactness. Offer rejects a tuple strictly below that threshold without
// the mutex and takes the mutex for every other tuple. Used from one
// goroutine, it answers WouldAccept and Offer exactly as a Heap does,
// but for a NaN similarity, which WouldAccept always rejects (Heap
// accepts it until it fills). The searches' bounds are finite for
// validated input; only a custom query.Metric that returns +Inf can
// make one NaN, and the searches then prune that branch.
type Concurrent struct {
	mu  sync.Mutex
	h   Heap
	thr atomic.Uint64 // math.Float64bits of the current threshold
}

// NewConcurrent returns a Concurrent sink keeping the top k entries.
func NewConcurrent(k int) *Concurrent {
	c := new(Concurrent)
	c.h.init(k)
	c.thr.Store(math.Float64bits(math.Inf(-1)))
	return c
}

// K returns the sink's capacity.
func (c *Concurrent) K() int { return c.h.K() }

// WouldAccept reports whether sim could enter the results, using the
// lock-free threshold snapshot. As with Heap.WouldAccept, equality passes:
// a bound equal to the threshold may still cover a tuple that wins the
// deterministic tie-break, and admitting it is what makes searches on
// several workers return the same tuples as on one. NaN fails.
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
