package sched

import (
	"runtime"
	"sync"
)

// Worker is one goroutine's searcher in a Run. P is the prepared state
// of one subspace: Run takes it from its States, hands it from the
// worker that prepared it to the workers that enumerate its chunks, and
// gives it back once the subspace's last chunk finishes, so a state
// outlives its query and its buffers serve the next one.
type Worker[P any] interface {
	// Prep prepares subspace sub into p on worker lane w and returns its
	// root count; 0 skips the subspace. Run calls it at most once per
	// subspace. p may hold an earlier subspace's state, of this query or
	// of an earlier one, with another tuple size: Prep sizes p to its
	// query and rewrites everything Chunk reads.
	Prep(p *P, w, sub int) (roots int, err error)
	// Chunk enumerates the roots [lo, hi) of subspace sub, prepared in
	// p, on worker lane w. Other workers may enumerate other chunks of
	// the same p at the same time, so Chunk only reads it, or guards
	// what it writes with a lock of p's own.
	Chunk(p *P, w, sub, lo, hi int) error
}

// States is where Run takes prepared states from and gives them back
// to: a *Pool in the searches.
type States[P any] interface {
	Get() *P
	Put(*P)
}

// Pool is a typed sync.Pool: Get returns a value an earlier Put gave
// back, or a new zero one. A value belongs to whoever got it until it
// is Put back, and nobody may touch it after that. Like sync.Pool it
// keeps no value for good: whatever sits idle through two garbage
// collections is dropped, so a burst of large queries does not pin its
// buffers. The zero Pool is ready to use.
type Pool[T any] struct{ p sync.Pool }

// Get takes a value out of the pool, or makes a zero one.
func (pl *Pool[T]) Get() *T {
	if v, ok := pl.p.Get().(*T); ok {
		return v
	}
	return new(T)
}

// Put gives v back to the pool.
func (pl *Pool[T]) Put(v *T) { pl.p.Put(v) }

// Bounds lets Run stop before the subspaces that cannot contribute.
// Of[sub] is an upper bound on the similarity of every tuple subspace
// sub holds, non-increasing in sub (the caller orders its subspaces
// best-first). Accept reports whether the results could still take a
// tuple of a given similarity; once it rejects a value it must reject
// it for the rest of the run, as a top-k threshold that never falls
// does. The zero Bounds never stops.
type Bounds struct {
	Of     []float64
	Accept func(float64) bool
}

// stops reports whether Run stops at subspace sub: its bound, and by
// the order every later subspace's, is one the results cannot take.
func (b Bounds) stops(sub int) bool {
	return b.Of != nil && !b.Accept(b.Of[sub])
}

// Run prepares each of the subspaces 0..numSub-1 at most once, in
// index order, and enumerates every root of each prepared subspace
// exactly once, on the given number of workers (fewer than one means
// one, negative GOMAXPROCS), each with its own Worker from newWorker.
// Worker 0 runs on the caller's goroutine and every other worker on a
// goroutine of its own, all through the same Scheduler loop: a lone
// worker's Scheduler hands out each subspace as the one chunk [0, n).
// Run calls newWorker on the caller's goroutine, once per worker, so
// the caller can collect the workers and release them once Run
// returns. Run takes every prepared state from states and gives each
// back before it returns, on success and on error alike. It stops
// issuing preps at the first subspace whose bound b rejects and
// returns how many subspaces it cut there: they get no prep, no chunk
// and no scheduler round trip. The first error aborts the run; Run
// returns it once every worker has exited. minChunk floors the
// auto-sized chunks (see Tuning.ChunkSize).
func Run[P any](states States[P], numSub int, b Bounds, workers, minChunk int, tun Tuning, newWorker func() Worker[P]) (cut int, err error) {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &run[P]{states: states, preps: make([]*P, numSub)}
	r.sch.init(numSub, workers, minChunk, tun)
	r.sch.bounds = b
	lead := newWorker()
	for w := 1; w < r.sch.workers; w++ {
		wk := newWorker()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.serve(wk, w)
		}()
	}
	r.serve(lead, 0)
	r.wg.Wait()
	if r.err != nil {
		// The abort dropped the unacquired chunks, so the states of
		// their subspaces never saw their last Done.
		for _, p := range r.preps {
			if p != nil {
				states.Put(p)
			}
		}
	}
	return r.sch.cut, r.err
}

// run is the shared state of one Run: the scheduler, where prepared
// states come from and go back to, the prepared-subspace handoff slots,
// and the goroutines of the workers past the first. At most about one
// state per worker is out at a time, because the scheduler drains
// queued chunks before starting new preps. preps[sub] is written by the
// preparing worker before Publish and read by chunk workers after
// Acquire; the scheduler's lock orders the two.
type run[P any] struct {
	sch    Scheduler
	states States[P]
	preps  []*P
	wg     sync.WaitGroup

	errOnce sync.Once
	err     error
}

// serve runs worker wk on lane w until the scheduler drains or aborts;
// its first error aborts the run for every worker.
func (r *run[P]) serve(wk Worker[P], w int) {
	if err := r.work(wk, w); err != nil {
		r.errOnce.Do(func() { r.err = err })
		r.sch.Abort()
	}
}

// work is one worker's loop: acquire units until the scheduler drains
// or aborts, returning the first error of its own.
func (r *run[P]) work(wk Worker[P], w int) error {
	for {
		u, ok := r.sch.Acquire()
		if !ok {
			return nil
		}
		if u.Prep {
			p := r.states.Get()
			n, err := wk.Prep(p, w, u.Sub)
			if err != nil {
				n = 0
			}
			r.preps[u.Sub] = p
			if r.sch.Publish(u.Sub, n) == 0 {
				// Skipped, failed, or aborted before any chunk was
				// queued: no chunk will read p, so give it back here.
				r.preps[u.Sub] = nil
				r.states.Put(p)
			}
			if err != nil {
				return err
			}
			continue
		}
		p := r.preps[u.Sub]
		err := wk.Chunk(p, w, u.Sub, u.Lo, u.Hi)
		if r.sch.Done(u.Sub) {
			r.preps[u.Sub] = nil
			r.states.Put(p)
		}
		if err != nil {
			return err
		}
	}
}
