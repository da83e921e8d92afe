package simil

import (
	"math/rand"
	"testing"

	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
)

// The per-candidate scoring kernels must not allocate once scratch
// capacity is warm: DistVectorOfPositions on the common (no mask,
// Euclidean) SoA path, AttrSim's prenormed dot product, and the
// region gather HSP builds its candidate lists with.

func TestDistVectorOfPositionsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, _ := newCtx(t, rng, 3, 1.5)
	if c.Active != nil || c.Metric != nil {
		t.Fatal("fixture must exercise the common SoA path (no mask, Euclidean)")
	}
	tuple := []int32{0, 1, 2}
	dst := c.DistVectorOfPositions(tuple, nil) // warm the buffer
	if got := testing.AllocsPerRun(100, func() {
		dst = c.DistVectorOfPositions(tuple, dst)
	}); got != 0 {
		t.Errorf("DistVectorOfPositions with warm dst allocates %v times per call, want 0", got)
	}
}

func TestDistVectorOfPositionsMaskedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c, _ := newCtx(t, rng, 3, 1.5)
	// Force the masked fallback with every pair active: same output,
	// element-wise loop instead of the SoA kernel.
	c.Active = []bool{true, true, true}
	tuple := []int32{0, 1, 2}
	dst := c.DistVectorOfPositions(tuple, nil)
	if got := testing.AllocsPerRun(100, func() {
		dst = c.DistVectorOfPositions(tuple, dst)
	}); got != 0 {
		t.Errorf("masked DistVectorOfPositions with warm dst allocates %v times per call, want 0", got)
	}
}

func TestAttrSimZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c, _ := newCtx(t, rng, 3, 1.5)
	var sink float64
	if got := testing.AllocsPerRun(100, func() {
		sink = c.AttrSim(0, 1)
	}); got != 0 {
		t.Errorf("AttrSim allocates %v times per call, want 0", got)
	}
	_ = sink
}

func TestScratchPushPopZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c, _ := newCtx(t, rng, 3, 1.5)
	s := c.NewScratch()
	if got := testing.AllocsPerRun(100, func() {
		n1 := s.Push(c.DS.Loc(0), 0.9)
		n2 := s.Push(c.DS.Loc(1), 0.8)
		n3 := s.Push(c.DS.Loc(2), 0.7)
		s.Pop(n3)
		s.Pop(n2)
		s.Pop(n1)
	}); got != 0 {
		t.Errorf("Scratch Push/Pop allocates %v times per call, want 0", got)
	}
}

func TestRegionCandidatesIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c, _ := newCtx(t, rng, 3, 1.5)
	ix := partition.NewIndex(c.DS)
	bounds := c.DS.Bounds()
	quarter := geo.Rect{MinX: bounds.MinX, MinY: bounds.MinY, MaxX: bounds.Center().X + 1, MaxY: bounds.Center().Y + 1}
	// The whole bounds take the category's run; the quarter cuts nodes.
	for _, region := range []geo.Rect{bounds, quarter} {
		var bs BatchScratch
		dst := c.RegionCandidatesInto(nil, 0, ix, region, &bs) // warm the buffers
		if got := testing.AllocsPerRun(100, func() {
			dst = c.RegionCandidatesInto(dst[:0], 0, ix, region, &bs)
		}); got != 0 {
			t.Errorf("RegionCandidatesInto over %v with warm buffers allocates %v times per call, want 0", region, got)
		}
	}
}
