package sched

import "sync"

// Worker is one goroutine's searcher in a Run. P is the prepared state
// of one subspace, which Run pools and hands from the worker that
// prepared it to the workers that enumerate its chunks.
type Worker[P any] interface {
	// Prep prepares subspace sub into p on worker lane w and returns its
	// root count; 0 skips the subspace. Run calls it at most once per
	// subspace. p may hold an earlier subspace's state to reuse.
	Prep(p *P, w, sub int) (roots int, err error)
	// Chunk enumerates the roots [lo, hi) of subspace sub, prepared in
	// p, on worker lane w. Other workers may enumerate other chunks of
	// the same p at the same time, so Chunk only reads it, or guards
	// what it writes with a lock of p's own.
	Chunk(p *P, w, sub, lo, hi int) error
}

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
// exactly once, on the given number of workers, each with its own
// Worker from newWorker. It stops issuing preps at the first subspace
// whose bound b rejects and returns how many subspaces it cut there:
// they get no prep, no chunk and no scheduler round trip. The first
// error aborts the run; Run returns it once every worker has exited.
// minChunk floors the auto-sized chunks (see Tuning.ChunkSize).
//
// At one worker (or fewer) Run loops on the caller's goroutine instead:
// it prepares the subspaces in order, reusing one prepared state, and
// enumerates each non-empty one as the single chunk [0, n) on lane 0.
// A lone worker has nobody to steal from, and the Scheduler's lock
// round-trips per unit measured about 10% slower on sequential HSP
// queries with tens of thousands of subspaces.
func Run[P any](numSub int, b Bounds, workers, minChunk int, tun Tuning, newWorker func() Worker[P]) (cut int, err error) {
	if workers <= 1 {
		wk, p := newWorker(), new(P)
		for sub := 0; sub < numSub; sub++ {
			if b.stops(sub) {
				return numSub - sub, nil
			}
			n, err := wk.Prep(p, 0, sub)
			if err == nil && n > 0 {
				err = wk.Chunk(p, 0, sub, 0, n)
			}
			if err != nil {
				return 0, err
			}
		}
		return 0, nil
	}
	r := &run[P]{sch: New(numSub, workers, minChunk, tun), preps: make([]*P, numSub)}
	r.sch.bounds = b
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := r.work(newWorker(), w); err != nil {
				r.errOnce.Do(func() { r.err = err })
				r.sch.Abort()
			}
		}(w)
	}
	wg.Wait()
	return r.sch.cut, r.err
}

// run is the shared state of one parallel Run: the scheduler, the
// prepared-subspace handoff slots, and a recycling pool of prepared
// states (bounded by the worker count, because the scheduler drains
// queued chunks before starting new preps). preps[sub] is written by
// the preparing worker before Publish and read by chunk workers after
// Acquire; the scheduler's lock orders the two.
type run[P any] struct {
	sch   *Scheduler
	preps []*P

	mu   sync.Mutex
	pool []*P

	errOnce sync.Once
	err     error
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
			p := r.take()
			n, err := wk.Prep(p, w, u.Sub)
			if err != nil {
				n = 0
			}
			r.preps[u.Sub] = p
			if r.sch.Publish(u.Sub, n) == 0 {
				// Skipped, failed, or aborted before any chunk was
				// queued: no chunk will read p, so reclaim it here.
				r.preps[u.Sub] = nil
				r.put(p)
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
			r.put(p)
		}
		if err != nil {
			return err
		}
	}
}

func (r *run[P]) take() *P {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.pool); n > 0 {
		p := r.pool[n-1]
		r.pool = r.pool[:n-1]
		return p
	}
	return new(P)
}

func (r *run[P]) put(p *P) {
	r.mu.Lock()
	r.pool = append(r.pool, p)
	r.mu.Unlock()
}
