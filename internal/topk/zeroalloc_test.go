package topk

import (
	"math"
	"testing"
)

// fillHeap fills a k=4 heap so its threshold is 0.5.
func fillHeap() *Heap {
	h := New(4)
	fill(h)
	return h
}

// fill offers s four tuples, so a k=4 sink's threshold is 0.5.
func fill(s sink) {
	for i, sim := range []float64{0.5, 0.6, 0.7, 0.8} {
		s.Offer([]int32{int32(i), int32(i + 10)}, sim)
	}
}

// filledSinks returns a Heap and a Concurrent, each filled by fill.
func filledSinks() map[string]sink {
	c := NewConcurrent(4)
	fill(c)
	return map[string]sink{"Heap": fillHeap(), "Concurrent": c}
}

// TestOfferRejectZeroAlloc pins the dominant Offer outcome — a full sink
// rejecting a candidate strictly below the threshold — at zero
// allocations, on Heap and on Concurrent: the fast reject fires before
// the tuple key is built.
func TestOfferRejectZeroAlloc(t *testing.T) {
	cand := []int32{99, 100}
	for name, s := range filledSinks() {
		if got := testing.AllocsPerRun(100, func() {
			if s.Offer(cand, 0.1) {
				t.Fatalf("%s: below-threshold candidate must be rejected", name)
			}
		}); got != 0 {
			t.Errorf("%s: rejecting Offer allocates %v times per call, want 0", name, got)
		}
	}
}

func TestWouldAcceptThresholdZeroAlloc(t *testing.T) {
	for name, s := range filledSinks() {
		var ok bool
		var thr float64
		if got := testing.AllocsPerRun(100, func() {
			ok = s.WouldAccept(0.3)
			thr = s.Threshold()
		}); got != 0 {
			t.Errorf("%s: WouldAccept/Threshold allocate %v times per call, want 0", name, got)
		}
		_, _ = ok, thr
	}
}

// TestOfferFastRejectSemantics proves the fast reject never changes
// results: strictly-below-threshold candidates were unconditionally
// rejected before (beats needs sim > or tie), duplicates below the
// threshold were rejected too, and NaN still loses in beats.
func TestOfferFastRejectSemantics(t *testing.T) {
	h := fillHeap()
	if h.Offer([]int32{1, 11}, 0.2) { // duplicate tuple, below threshold
		t.Error("duplicate below threshold must be rejected")
	}
	if h.Offer([]int32{50, 51}, math.NaN()) {
		t.Error("NaN similarity must be rejected")
	}
	if !h.Offer([]int32{60, 61}, 0.5) {
		// equal to the threshold: key {60,61} is compared against the
		// incumbent's {0,10}; bigger key loses... unless it wins the
		// tie-break. Compute the expectation explicitly.
		worst := h.h[0]
		if beats(0.5, tupleKey([]int32{60, 61}), worst.e.Sim, worst.key) {
			t.Error("tie-breaking candidate must still enter at threshold similarity")
		}
	}
	if !h.Offer([]int32{70, 71}, 0.9) {
		t.Error("above-threshold candidate must enter")
	}
}

func TestConcurrentOfferRejectZeroAlloc(t *testing.T) {
	c := NewConcurrent(4)
	for i, sim := range []float64{0.5, 0.6, 0.7, 0.8} {
		c.Offer([]int32{int32(i), int32(i + 10)}, sim)
	}
	cand := []int32{99, 100}
	if got := testing.AllocsPerRun(100, func() {
		if c.Offer(cand, 0.1) {
			t.Fatal("below-threshold candidate must be rejected")
		}
	}); got != 0 {
		t.Errorf("rejecting Concurrent.Offer allocates %v times per call, want 0", got)
	}
}
