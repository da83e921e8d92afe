package sched

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// drain pulls every unit out of a scheduler on a single goroutine,
// publishing preps with the candidate counts from n. Returns the
// acquired chunk units grouped by subspace.
func drain(t *testing.T, s *Scheduler, n []int) [][]Unit {
	t.Helper()
	chunks := make([][]Unit, len(n))
	for {
		u, ok := s.Acquire()
		if !ok {
			return chunks
		}
		if u.Prep {
			s.Publish(u.Sub, n[u.Sub])
			continue
		}
		chunks[u.Sub] = append(chunks[u.Sub], u)
		s.Done(u.Sub)
	}
}

// coverage verifies the chunks of one subspace tile [0, n) exactly.
func coverage(t *testing.T, chunks []Unit, n int) {
	t.Helper()
	seen := make([]bool, n)
	for _, u := range chunks {
		if u.Lo < 0 || u.Hi > n || u.Lo >= u.Hi {
			t.Fatalf("bad chunk [%d, %d) over %d candidates", u.Lo, u.Hi, n)
		}
		for i := u.Lo; i < u.Hi; i++ {
			if seen[i] {
				t.Fatalf("candidate %d covered twice", i)
			}
			seen[i] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("candidate %d never covered", i)
		}
	}
}

func TestFixedChunking(t *testing.T) {
	s := New(1, 4, 1, Tuning{ChunkSize: 10})
	chunks := drain(t, s, []int{25})
	if len(chunks[0]) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks[0]))
	}
	want := []Unit{{Sub: 0, Lo: 0, Hi: 10}, {Sub: 0, Lo: 10, Hi: 20}, {Sub: 0, Lo: 20, Hi: 25}}
	for i, u := range chunks[0] {
		if u != want[i] {
			t.Errorf("chunk %d = %+v, want %+v", i, u, want[i])
		}
	}
	coverage(t, chunks[0], 25)
}

func TestWholeSubspaceChunking(t *testing.T) {
	s := New(2, 4, 1, Tuning{ChunkSize: -1})
	chunks := drain(t, s, []int{100, 7})
	for sub, n := range []int{100, 7} {
		if len(chunks[sub]) != 1 {
			t.Fatalf("subspace %d: got %d chunks, want 1", sub, len(chunks[sub]))
		}
		coverage(t, chunks[sub], n)
	}
}

func TestAutoChunking(t *testing.T) {
	// 4 workers x oversubscribe 4 = 16 target chunks; 1000 candidates
	// gives ceil(1000/16) = 63 per chunk, 16 chunks.
	s := New(1, 4, 1, Tuning{})
	chunks := drain(t, s, []int{1000})
	if len(chunks[0]) != 16 {
		t.Errorf("got %d auto chunks, want 16", len(chunks[0]))
	}
	coverage(t, chunks[0], 1000)

	// minChunk floors the auto size: 20 candidates over 16 targets would
	// be 2-wide, but minChunk 8 forces ceil(20/8) = 3 chunks.
	s = New(1, 4, 8, Tuning{})
	chunks = drain(t, s, []int{20})
	if len(chunks[0]) != 3 {
		t.Errorf("got %d floored chunks, want 3", len(chunks[0]))
	}
	coverage(t, chunks[0], 20)

	// A subspace smaller than minChunk is one chunk.
	s = New(1, 4, 64, Tuning{})
	chunks = drain(t, s, []int{5})
	if len(chunks[0]) != 1 {
		t.Errorf("got %d chunks for a tiny subspace, want 1", len(chunks[0]))
	}
	coverage(t, chunks[0], 5)
}

func TestSkippedSubspace(t *testing.T) {
	s := New(3, 2, 1, Tuning{ChunkSize: 4})
	chunks := drain(t, s, []int{6, 0, 3})
	if len(chunks[1]) != 0 {
		t.Errorf("skipped subspace produced %d chunks", len(chunks[1]))
	}
	coverage(t, chunks[0], 6)
	coverage(t, chunks[2], 3)
}

func TestAbortUnblocksWaiters(t *testing.T) {
	s := New(1, 2, 1, Tuning{})
	u, ok := s.Acquire()
	if !ok || !u.Prep {
		t.Fatalf("first acquire = %+v, %v; want a prep unit", u, ok)
	}
	// A second worker has nothing to do until the prep publishes; it
	// must park, and Abort must release it.
	done := make(chan bool)
	go func() {
		_, ok := s.Acquire()
		done <- ok
	}()
	s.Abort()
	if got := <-done; got {
		t.Error("aborted Acquire returned ok=true")
	}
	if n := s.Publish(u.Sub, 50); n != 0 {
		t.Errorf("Publish after abort queued %d chunks, want 0", n)
	}
	if _, ok := s.Acquire(); ok {
		t.Error("Acquire after abort returned ok=true")
	}
}

// skewedSizes returns deterministic, skewed root counts for n
// subspaces: one fat head, some empties.
func skewedSizes(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		switch {
		case i == 0:
			sizes[i] = 4000
		case i%7 == 3:
			sizes[i] = 0
		default:
			sizes[i] = 13 + 31*(i%11)
		}
	}
	return sizes
}

// TestStress hammers the scheduler with many workers under -race:
// every candidate of every subspace must be covered exactly once, every
// subspace prepped exactly once, and Done must report last-chunk
// exactly once per published subspace.
func TestStress(t *testing.T) {
	const (
		numSub  = 50
		workers = 8
	)
	for _, tun := range []Tuning{{}, {ChunkSize: 1}, {ChunkSize: 7}, {ChunkSize: -1}} {
		sizes := skewedSizes(numSub)
		var mu sync.Mutex
		prepped := make([]int, numSub)
		last := make([]int, numSub)
		covered := make([][]bool, numSub)
		for i, n := range sizes {
			covered[i] = make([]bool, n)
		}

		s := New(numSub, workers, 1, tun)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					u, ok := s.Acquire()
					if !ok {
						return
					}
					if u.Prep {
						mu.Lock()
						prepped[u.Sub]++
						mu.Unlock()
						s.Publish(u.Sub, sizes[u.Sub])
						continue
					}
					mu.Lock()
					for i := u.Lo; i < u.Hi; i++ {
						if covered[u.Sub][i] {
							t.Errorf("tuning %+v: subspace %d candidate %d covered twice", tun, u.Sub, i)
						}
						covered[u.Sub][i] = true
					}
					mu.Unlock()
					if s.Done(u.Sub) {
						mu.Lock()
						last[u.Sub]++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()

		for i, n := range sizes {
			if prepped[i] != 1 {
				t.Errorf("tuning %+v: subspace %d prepped %d times", tun, i, prepped[i])
			}
			for j := 0; j < n; j++ {
				if !covered[i][j] {
					t.Errorf("tuning %+v: subspace %d candidate %d never covered", tun, i, j)
				}
			}
			wantLast := 0
			if n > 0 {
				wantLast = 1
			}
			if last[i] != wantLast {
				t.Errorf("tuning %+v: subspace %d saw %d last-chunk signals, want %d", tun, i, last[i], wantLast)
			}
		}
	}
}

// TestStressAbort aborts mid-flight: workers must all exit, and chunks
// that were acquired before the abort still balance their Done calls.
func TestStressAbort(t *testing.T) {
	const (
		numSub  = 40
		workers = 8
	)
	sizes := make([]int, numSub)
	for i := range sizes {
		sizes[i] = 50 + i
	}
	s := New(numSub, workers, 1, Tuning{ChunkSize: 5})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			count := 0
			for {
				u, ok := s.Acquire()
				if !ok {
					return
				}
				count++
				if w == 0 && count == 10 {
					s.Abort()
				}
				if u.Prep {
					s.Publish(u.Sub, sizes[u.Sub])
					continue
				}
				s.Done(u.Sub)
			}
		}(w)
	}
	wg.Wait()
	if _, ok := s.Acquire(); ok {
		t.Error("Acquire after aborted drain returned ok=true")
	}
}

// fakeState is the prepared state of one subspace in TestRun: the
// subspace it was prepared for, so Chunk can check the handoff.
type fakeState struct{ sub int }

// fakeRun is every worker of one TestRun run: it records what Run asks
// of it and fails the Prep or Chunk of one chosen subspace.
type fakeRun struct {
	t                   *testing.T
	sizes               []int
	failPrep, failChunk int // subspace whose call fails; -1 for none

	mu      sync.Mutex
	prepped []int
	covered [][]int
	chunks  []Unit // in call order
}

var errPrep, errChunk = errors.New("prep failed"), errors.New("chunk failed")

func newFakeRun(t *testing.T, sizes []int, failPrep, failChunk int) *fakeRun {
	f := &fakeRun{t: t, sizes: sizes, failPrep: failPrep, failChunk: failChunk,
		prepped: make([]int, len(sizes)), covered: make([][]int, len(sizes))}
	for i, n := range sizes {
		f.covered[i] = make([]int, n)
	}
	return f
}

func (f *fakeRun) Prep(p *fakeState, w, sub int) (int, error) {
	p.sub = sub // Run must order this write before every Chunk of sub
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prepped[sub]++
	if sub == f.failPrep {
		return 0, errPrep
	}
	return f.sizes[sub], nil
}

func (f *fakeRun) Chunk(p *fakeState, w, sub, lo, hi int) error {
	if p.sub != sub {
		f.t.Errorf("chunk of subspace %d got the state prepared for %d", sub, p.sub)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := lo; i < hi; i++ {
		f.covered[sub][i]++
	}
	f.chunks = append(f.chunks, Unit{Sub: sub, Lo: lo, Hi: hi})
	if sub == f.failChunk {
		return errChunk
	}
	return nil
}

func (f *fakeRun) run(workers int, tun Tuning) error {
	_, err := Run(new(Pool[fakeState]), len(f.sizes), Bounds{}, workers, 1, tun, func() Worker[fakeState] { return f })
	return err
}

// countingStates is a States that hands out new fakeStates and records
// which are out, so a test can see that Run gives back every state it
// took, once.
type countingStates struct {
	t    *testing.T
	mu   sync.Mutex
	out  map[*fakeState]bool
	gets int
}

func (c *countingStates) Get() *fakeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := new(fakeState)
	c.out[p] = true
	c.gets++
	return p
}

func (c *countingStates) Put(p *fakeState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.out[p] {
		c.t.Errorf("Run gave back a state it did not take, or gave it back twice")
	}
	delete(c.out, p)
}

// TestRun drives Run over skewed subspace sizes (under -race): every
// subspace is prepared once and its roots tiled exactly once, handed
// the state prepared for it; one worker enumerates each non-empty
// subspace as one chunk [0, n), in subspace order; and the first error
// of a Prep or a Chunk is returned once every worker has exited.
func TestRun(t *testing.T) {
	sizes := skewedSizes(50)
	for _, workers := range []int{1, 8} {
		for _, tun := range []Tuning{{}, {ChunkSize: 1}, {ChunkSize: -1}} {
			f := newFakeRun(t, sizes, -1, -1)
			if err := f.run(workers, tun); err != nil {
				t.Fatalf("workers %d %+v: %v", workers, tun, err)
			}
			for sub, n := range sizes {
				if f.prepped[sub] != 1 {
					t.Errorf("workers %d %+v: subspace %d prepared %d times", workers, tun, sub, f.prepped[sub])
				}
				for i := 0; i < n; i++ {
					if f.covered[sub][i] != 1 {
						t.Errorf("workers %d %+v: subspace %d root %d covered %d times", workers, tun, sub, i, f.covered[sub][i])
					}
				}
			}
			if workers > 1 {
				continue
			}
			var want []Unit
			for sub, n := range sizes {
				if n > 0 {
					want = append(want, Unit{Sub: sub, Lo: 0, Hi: n})
				}
			}
			if !slices.Equal(f.chunks, want) {
				t.Errorf("%+v: one worker ran chunks %v, want %v", tun, f.chunks, want)
			}
		}

		// Subspace 10 is empty, so it fails only in Prep.
		for _, fail := range []struct {
			prep, chunk int
			want        error
		}{{10, -1, errPrep}, {-1, 0, errChunk}, {-1, 12, errChunk}} {
			f := newFakeRun(t, sizes, fail.prep, fail.chunk)
			if err := f.run(workers, Tuning{ChunkSize: 1}); !errors.Is(err, fail.want) {
				t.Errorf("workers %d, failing prep %d chunk %d: err %v, want %v", workers, fail.prep, fail.chunk, err, fail.want)
			}
			if last := max(fail.prep, fail.chunk); workers == 1 && f.prepped[last+1] != 0 {
				t.Errorf("one worker prepared subspace %d after subspace %d failed", last+1, last)
			}
		}
	}
}

// TestRunStopsAtFirstRejectedBound: with Bounds, Run prepares subspaces
// in index order until the first bound Accept rejects, prepares none
// from there on, enumerates what it prepared in full, and returns how
// many subspaces it cut, at one worker and at eight. Equal bounds past
// the stop are cut too.
func TestRunStopsAtFirstRejectedBound(t *testing.T) {
	sizes := skewedSizes(50)
	bounds := make([]float64, len(sizes))
	for i := range bounds {
		bounds[i] = float64(len(sizes) - i/2) // non-increasing, in equal pairs
	}
	for _, workers := range []int{1, 8} {
		for _, limit := range []float64{100, 45, 1} {
			f := newFakeRun(t, sizes, -1, -1)
			b := Bounds{Of: bounds, Accept: func(v float64) bool { return v >= limit }}
			cut, err := Run(new(Pool[fakeState]), len(sizes), b, workers, 1, Tuning{ChunkSize: 3}, func() Worker[fakeState] { return f })
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for want < len(sizes) && bounds[want] >= limit {
				want++
			}
			if cut != len(sizes)-want {
				t.Errorf("workers %d limit %v: cut %d, want %d", workers, limit, cut, len(sizes)-want)
			}
			for sub, n := range sizes {
				if prepped := sub < want; f.prepped[sub] != btoi(prepped) {
					t.Errorf("workers %d limit %v: subspace %d prepared %d times", workers, limit, sub, f.prepped[sub])
				}
				for i := 0; i < n; i++ {
					if f.covered[sub][i] != btoi(sub < want) {
						t.Errorf("workers %d limit %v: subspace %d root %d covered %d times", workers, limit, sub, i, f.covered[sub][i])
					}
				}
			}
		}
	}
}

// TestRunGivesStatesBack: every prepared state Run takes from its
// States goes back exactly once before Run returns — after a run that
// succeeds, one cut short by its bounds, one whose Prep fails and one
// whose Chunk fails, which leaves chunks of other subspaces unacquired
// — at one worker and at eight.
func TestRunGivesStatesBack(t *testing.T) {
	sizes := skewedSizes(50)
	bounds := make([]float64, len(sizes))
	for i := range bounds {
		bounds[i] = float64(len(sizes) - i)
	}
	cases := []struct {
		name              string
		failPrep, failChk int
		stopBelow         float64
		want              error
	}{
		{"success", -1, -1, 0, nil},
		{"bound stop", -1, -1, 30, nil},
		{"prep error", 10, -1, 0, errPrep},
		{"chunk error", -1, 12, 0, errChunk},
	}
	for _, workers := range []int{1, 8} {
		for _, c := range cases {
			f := newFakeRun(t, sizes, c.failPrep, c.failChk)
			states := &countingStates{t: t, out: map[*fakeState]bool{}}
			b := Bounds{Of: bounds, Accept: func(v float64) bool { return v >= c.stopBelow }}
			_, err := Run[fakeState](states, len(sizes), b, workers, 1, Tuning{ChunkSize: 1}, func() Worker[fakeState] { return f })
			if !errors.Is(err, c.want) {
				t.Errorf("workers %d, %s: err %v, want %v", workers, c.name, err, c.want)
			}
			if states.gets == 0 || len(states.out) != 0 {
				t.Errorf("workers %d, %s: took %d states, %d not given back", workers, c.name, states.gets, len(states.out))
			}
		}
	}
}

// laneRun is every worker of one TestRunGoroutines run: the first
// workers Preps wait for each other, so every lane takes part, and each
// Prep and Chunk records the goroutine it ran on, by lane.
type laneRun struct {
	barrier sync.WaitGroup
	workers int

	mu    sync.Mutex
	lanes map[int]map[uint64]bool
}

func (l *laneRun) seen(w int) {
	id := goroutineID()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lanes[w] == nil {
		l.lanes[w] = map[uint64]bool{}
	}
	l.lanes[w][id] = true
}

func (l *laneRun) Prep(_ *fakeState, w, sub int) (int, error) {
	l.seen(w)
	if sub < l.workers {
		l.barrier.Done()
		l.barrier.Wait()
	}
	return 3, nil
}

func (l *laneRun) Chunk(_ *fakeState, w, _, _, _ int) error {
	l.seen(w)
	return nil
}

// goroutineID reads the calling goroutine's id from its stack header,
// "goroutine 17 [running]:".
func goroutineID() uint64 {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line = bytes.TrimPrefix(line, []byte("goroutine "))
	id, err := strconv.ParseUint(string(line[:bytes.IndexByte(line, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunGoroutines: lane 0 of a Run, its only lane at one worker, runs
// every Prep and Chunk on the caller's goroutine, and each of the other
// w-1 lanes of a w-worker Run runs on one goroutine of its own.
func TestRunGoroutines(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{1, 2, 4} {
		l := &laneRun{workers: workers, lanes: map[int]map[uint64]bool{}}
		l.barrier.Add(workers)
		if _, err := Run(new(Pool[fakeState]), 3*workers, Bounds{}, workers, 1, Tuning{ChunkSize: 1}, func() Worker[fakeState] { return l }); err != nil {
			t.Fatal(err)
		}
		if len(l.lanes) != workers {
			t.Fatalf("workers %d: %d lanes ran", workers, len(l.lanes))
		}
		ids := map[uint64]int{}
		for w, seen := range l.lanes {
			if len(seen) != 1 {
				t.Errorf("workers %d: lane %d ran on %d goroutines", workers, w, len(seen))
			}
			for id := range seen {
				if (id == caller) != (w == 0) {
					t.Errorf("workers %d: lane %d ran on goroutine %d; the caller's is %d", workers, w, id, caller)
				}
				ids[id]++
			}
		}
		if len(ids) != workers {
			t.Errorf("workers %d: lanes ran on %d goroutines, want one each", workers, len(ids))
		}
	}
}

// nopWorker prepares every subspace with a fixed root count and does
// nothing with it, so BenchmarkRun times the driver alone.
type nopWorker struct{ roots int }

func (n nopWorker) Prep(*fakeState, int, int) (int, error)     { return n.roots, nil }
func (n nopWorker) Chunk(*fakeState, int, int, int, int) error { return nil }

// BenchmarkRun measures what the driver itself costs per run: the
// scheduler round trips, the handoff slots and, above one worker, the
// goroutines, over 5, 400 and 5,000 subspaces of 64 roots each with a
// no-op worker.
func BenchmarkRun(b *testing.B) {
	var states Pool[fakeState]
	for _, numSub := range []int{5, 400, 5000} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("subspaces=%d/workers=%d", numSub, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(&states, numSub, Bounds{}, workers, 16, Tuning{}, func() Worker[fakeState] { return nopWorker{64} }); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestPoolGetIsZero: an empty Pool makes a zero value.
func TestPoolGetIsZero(t *testing.T) {
	var pl Pool[fakeState]
	if p := pl.Get(); p == nil || *p != (fakeState{}) {
		t.Fatalf("empty pool returned %v, want a zero state", p)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
