package topk

import (
	"math"
	"testing"
	"testing/quick"
)

// The heap's threshold must always equal the minimum retained similarity
// once full, and never admit a strictly worse candidate.
func TestQuickThresholdInvariant(t *testing.T) {
	f := func(sims []float64, k uint8) bool {
		h := New(int(k%8) + 1)
		for i, raw := range sims {
			s := raw
			if math.IsNaN(s) || math.IsInf(s, 0) {
				s = 0
			}
			h.Offer([]int32{int32(i)}, s)
			if h.Full() {
				res := h.Results()
				minSim := res[len(res)-1].Sim
				if h.Threshold() != minSim {
					return false
				}
			}
		}
		// results are sorted best-first
		res := h.Results()
		for i := 1; i < len(res); i++ {
			if res[i].Sim > res[i-1].Sim {
				return false
			}
		}
		return len(res) <= h.K()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// The concurrent sink must agree with a plain heap when used
// sequentially, step by step: the same Offer answers, the same
// WouldAccept answers for a probe after every offer, and the same
// results. The searches rely on this to keep one-worker runs identical
// to the heap they used to collect into.
func TestQuickConcurrentMatchesHeap(t *testing.T) {
	finite := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	f := func(sims, probes []float64, k uint8) bool {
		kk := int(k%6) + 1
		h := New(kk)
		c := NewConcurrent(kk)
		for i, raw := range sims {
			s := finite(raw)
			if h.Offer([]int32{int32(i)}, s) != c.Offer([]int32{int32(i)}, s) {
				return false
			}
			probe := s
			if len(probes) > 0 {
				probe = finite(probes[i%len(probes)])
			}
			if h.WouldAccept(probe) != c.WouldAccept(probe) {
				return false
			}
		}
		a, b := h.Results(), c.Results()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Sim != b[i].Sim || a[i].Tuple[0] != b[i].Tuple[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
