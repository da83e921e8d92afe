// Package sched runs the subspace searches of HSP and LORA: Run is the
// one driver both algorithms share, and Scheduler is the work-unit queue
// its workers loop over.
//
// Both algorithms search each core's ac-subspace independently under
// Lemma 1's exactly-once rule, so they share one outer shape: prepare a
// subspace once, then enumerate its dim-0 roots. An algorithm supplies
// the two steps as a Worker; Run owns the rest — the prepared states'
// handoff between workers, the worker goroutines, and the first-error
// abort. Every worker count runs the same loop: worker 0 on the
// caller's goroutine, each other worker on a goroutine of its own. A
// lone worker takes each subspace whole, as one chunk, so a one-worker
// run prepares a subspace, enumerates it, and only then prepares the
// next.
//
// A prepared state outlives its query. Run takes each from the caller's
// States, in the searches a Pool that lives as long as the process, and
// owns it from the Get to the Put: the preparing worker writes it, the
// workers enumerating its chunks read it, and Run puts it back when the
// subspace's last chunk finishes, when its prep finds nothing to
// enumerate, and, on an error, once the workers have exited. The
// searchers come from Pools too, which their algorithm releases once
// Run returns. So a query regrows only what outgrows the buffers an
// earlier query left; a Pool drops what sits idle through two garbage
// collections, as sync.Pool does.
//
// With more than one worker, the unit of work is smaller than the
// subspace: a *(subspace, dim-0 root range)* chunk. The pre-stealing
// parallel loops pulled whole subspaces off an atomic counter, which
// made a Zipf head subspace indivisible: one worker lane dragged ~66% of
// the candidate work while the others idled (the EXPERIMENTS.md S1
// baseline). Workers acquire
// units in a loop — first a prep unit per subspace (run at most once per
// subspace, so the Lemma-1 discipline holds), then enumeration chunks of
// the prepared subspace's roots, sized by root count so a fat
// subspace's root level is shared across every idle worker. Preps are
// issued in subspace order; a run with Bounds stops issuing them at the
// first subspace whose bound the results can no longer take.
//
// Exactness is unaffected by steal order: the concurrent top-k's
// deterministic tie-break is order-independent, and a stale pruning
// threshold only admits extra candidates. The scheduler therefore makes
// no ordering promises beyond "every published chunk is acquired exactly
// once".
//
// The package is a leaf: pure stdlib, importable from any algorithm.
package sched

import "sync"

// oversubscribe is the auto-sized chunk count per worker per subspace:
// enough granularity for the tail to steal, few enough that per-chunk
// overhead stays invisible.
const oversubscribe = 4

// Tuning controls how a prepared subspace's root range is split into
// steal-able chunks. The zero value auto-sizes.
type Tuning struct {
	// ChunkSize fixes the chunk length in dim-0 roots: > 0 uses exactly
	// that size (1 is the adversarial minimum — every root its own
	// unit), < 0 disables splitting (one chunk per subspace, the
	// pre-stealing behavior), 0 auto-sizes from the worker count, to
	// about oversubscribe chunks per worker but never below the
	// caller's minimum chunk. A lone worker never splits.
	ChunkSize int
}

// Unit is one acquired work item. Prep units ask the worker to prepare
// subspace Sub (build candidate lists) and report the root candidate
// count via Publish; enumeration units ask it to search the dim-0
// candidate range [Lo, Hi) of the already-prepared Sub.
type Unit struct {
	Sub    int
	Lo, Hi int
	Prep   bool
}

// Scheduler hands out prep and enumeration units to the workers of one
// Run. One Scheduler covers one query execution.
type Scheduler struct {
	mu       sync.Mutex
	cond     sync.Cond
	tun      Tuning
	workers  int
	minChunk int
	numSub   int
	nextSub  int // next subspace needing prep
	prep     int // prep units handed out but not yet Published
	queue    []Unit
	qhead    int
	pending  []int // unacquired+unfinished chunks per subspace
	aborted  bool
	// bounds stops the preps (see Bounds); cut counts the subspaces
	// left unprepared when it did.
	bounds Bounds
	cut    int
}

// New returns a scheduler over numSub subspaces for the given worker
// count (used by chunk sizing; values below 1 mean 1). minChunk floors
// the auto-sized chunks so tiny subspaces are not shredded into
// per-root units; values below 1 mean 1.
func New(numSub, workers, minChunk int, tun Tuning) *Scheduler {
	s := new(Scheduler)
	s.init(numSub, workers, minChunk, tun)
	return s
}

// init readies the zero s as New describes.
func (s *Scheduler) init(numSub, workers, minChunk int, tun Tuning) {
	s.tun, s.workers, s.minChunk, s.numSub = tun, max(workers, 1), minChunk, numSub
	s.pending = make([]int, numSub)
	s.cond.L = &s.mu
}

// Acquire blocks until a unit is available and returns it; ok=false
// means the search is drained (or aborted) and the worker should exit.
// Chunks are preferred over preps so the number of subspaces held
// prepared-but-unfinished stays bounded by the worker count, not the
// subspace count.
//
//seq:hotpath
func (s *Scheduler) Acquire() (u Unit, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.aborted {
			return Unit{}, false
		}
		if s.qhead < len(s.queue) {
			u = s.queue[s.qhead]
			s.qhead++
			return u, true
		}
		if s.nextSub < s.numSub && s.bounds.stops(s.nextSub) {
			s.cut = s.numSub - s.nextSub
			s.nextSub = s.numSub
		}
		if s.nextSub < s.numSub {
			u = Unit{Sub: s.nextSub, Prep: true}
			s.nextSub++
			s.prep++
			return u, true
		}
		if s.prep == 0 {
			// nothing queued, nothing left to prep, nothing in flight
			// that could publish more: drained.
			return Unit{}, false
		}
		s.cond.Wait()
	}
}

// Publish completes a prep unit: the worker prepared subspace sub and
// found n root (dim-0) candidates. n <= 0 marks the subspace skipped
// (or failed) — no chunks are queued. It returns how many chunks were
// queued; 0 also when the scheduler was aborted meanwhile, in which
// case no Done calls will follow and the caller reclaims the prepared
// state itself. Every acquired prep unit must be Published exactly
// once, on every path including errors, or waiting workers deadlock.
func (s *Scheduler) Publish(sub, n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prep--
	count := 0
	if n > 0 && !s.aborted {
		if s.qhead == len(s.queue) {
			// drained queue: reuse the backing array instead of growing
			s.queue = s.queue[:0]
			s.qhead = 0
		}
		c := s.chunkFor(n)
		for lo := 0; lo < n; lo += c {
			hi := lo + c
			if hi > n {
				hi = n
			}
			s.queue = append(s.queue, Unit{Sub: sub, Lo: lo, Hi: hi})
			count++
		}
		s.pending[sub] = count
	}
	s.cond.Broadcast()
	return count
}

// Done records that one acquired chunk of sub finished (successfully or
// not) and reports whether it was the last one — the point at which the
// subspace's prepared state can be recycled.
//
//seq:hotpath
func (s *Scheduler) Done(sub int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[sub]--
	return s.pending[sub] == 0
}

// Abort wakes every waiting worker and makes all future Acquires fail,
// so an error or cancellation on one worker drains the others promptly.
// Chunks already acquired still run to completion (their Done calls
// stay balanced); unacquired ones are dropped.
func (s *Scheduler) Abort() {
	s.mu.Lock()
	s.aborted = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// chunkFor sizes the chunks of a subspace with n root candidates. A
// lone worker takes the whole subspace as one chunk, whatever the
// Tuning: nobody can steal from it. Called with s.mu held.
func (s *Scheduler) chunkFor(n int) int {
	c := s.tun.ChunkSize
	if s.workers == 1 || c < 0 {
		return n
	}
	if c > 0 {
		return c
	}
	c = (n + oversubscribe*s.workers - 1) / (oversubscribe * s.workers)
	return min(max(c, s.minChunk, 1), n)
}
