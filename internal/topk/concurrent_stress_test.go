package topk

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestConcurrentStress hammers one Concurrent sink from many goroutines
// mixing Offer, WouldAccept, Results, Len and Threshold calls, then
// checks the two invariants parallel searches rely on: every goroutine
// observes a monotonically non-decreasing published threshold, and the
// final results are exactly those of a sequential Heap oracle fed the
// same offers. Under -race this also exercises the lock-free threshold
// publication against the locked heap mutation.
func TestConcurrentStress(t *testing.T) {
	const k = 16
	const offersPerWorker = 2000
	workers := 4 * runtime.GOMAXPROCS(0)

	type offer struct {
		tuple []int32
		sim   float64
	}
	// Distinct tuples per offer keep the oracle comparison order-free:
	// the heap dedups by tuple identity, so a duplicate tuple offered
	// with two different similarities would make the outcome depend on
	// which arrived first. Coarse similarities force plenty of exact
	// ties, exercising the deterministic tie-break instead.
	offers := make([][]offer, workers)
	rng := rand.New(rand.NewSource(42))
	for g := range offers {
		offers[g] = make([]offer, offersPerWorker)
		for i := range offers[g] {
			offers[g][i] = offer{
				tuple: []int32{int32(g), int32(i)},
				sim:   float64(rng.Intn(1000)) / 1000,
			}
		}
	}

	c := NewConcurrent(k)
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			last := math.Inf(-1)
			buf := make([]int32, 2)
			reported := false
			for i, of := range offers[g] {
				// Reuse one buffer across offers: Offer's contract says
				// it copies retained tuples, so overwriting buf on the
				// next iteration must not corrupt the sink.
				copy(buf, of.tuple)
				c.WouldAccept(of.sim) // stale answers are fine; must not race
				c.Offer(buf, of.sim)
				thr := c.Threshold()
				if thr < last && !reported {
					t.Errorf("worker %d: published threshold decreased: %v -> %v", g, last, thr)
					reported = true
				}
				last = thr
				if i%512 == 0 {
					c.Results()
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()

	oracle := New(k)
	for _, os := range offers {
		for _, of := range os {
			oracle.Offer(of.tuple, of.sim)
		}
	}
	got, want := c.Results(), oracle.Results()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent results diverge from sequential oracle:\ngot  %v\nwant %v", got, want)
	}
	if thr := c.Threshold(); thr != oracle.Threshold() {
		t.Fatalf("final threshold %v, oracle %v", thr, oracle.Threshold())
	}
}

// sink is what Heap and Concurrent share, so one test can hold both to
// the same contract.
type sink interface {
	WouldAccept(sim float64) bool
	Offer(tuple []int32, sim float64) bool
	Threshold() float64
	Results() []Entry
}

// TestSinkOfferCopiesTuple pins Offer's contract ("copied if
// retained"): mutating the caller's slice after a successful Offer must
// not change what Results returns, for Heap and Concurrent alike.
func TestSinkOfferCopiesTuple(t *testing.T) {
	for name, s := range map[string]sink{
		"Heap":       New(2),
		"Concurrent": NewConcurrent(2),
	} {
		tuple := []int32{1, 2, 3}
		if !s.Offer(tuple, 0.5) {
			t.Fatalf("%s: Offer rejected the first tuple", name)
		}
		tuple[0], tuple[1], tuple[2] = 99, 98, 97

		got := s.Results()
		if len(got) != 1 {
			t.Fatalf("%s: got %d results, want 1", name, len(got))
		}
		if !reflect.DeepEqual(got[0].Tuple, []int32{1, 2, 3}) {
			t.Errorf("%s: Offer retained the caller's buffer: mutating it changed Results to %v", name, got[0].Tuple)
		}
	}
}

// TestConcurrentRejectsBelowThresholdWithoutLock pins Offer's lock-free
// reject: with the mutex held elsewhere, an offer strictly below the
// published threshold of a full sink must return false at once instead
// of waiting for the lock.
func TestConcurrentRejectsBelowThresholdWithoutLock(t *testing.T) {
	c := NewConcurrent(2)
	c.Offer([]int32{1}, 0.5)
	c.Offer([]int32{2}, 0.6)
	c.mu.Lock()
	done := make(chan bool, 1)
	go func() { done <- c.Offer([]int32{3}, 0.4) }()
	select {
	case inserted := <-done:
		c.mu.Unlock()
		if inserted {
			t.Fatal("Offer below the threshold was inserted")
		}
	case <-time.After(5 * time.Second):
		c.mu.Unlock()
		<-done
		t.Fatal("Offer below the threshold waited for the mutex")
	}
}
