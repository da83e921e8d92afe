package partition

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestBucketedRoundsUp(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := newIndex(t, randPoints(rng, 300, 100))
	for _, radius := range []float64{0.5, 3, 7.7, 42, 99} {
		p, err := ix.PartitionBucketed(radius)
		if err != nil {
			t.Fatal(err)
		}
		if p.Radius < radius {
			t.Errorf("bucketed radius %g < requested %g", p.Radius, radius)
		}
		if p.Radius > radius*bucketFactor*1.0001 {
			t.Errorf("bucketed radius %g over-rounds requested %g", p.Radius, radius)
		}
		// containment invariants still hold with the widened radius
		for _, ss := range p.Subspaces {
			if ss.Core.Diagonal() >= p.Radius {
				t.Errorf("core diagonal %g >= bucketed radius %g", ss.Core.Diagonal(), p.Radius)
			}
		}
	}
}

func TestBucketedSharesAcrossSimilarRadii(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ix := newIndex(t, randPoints(rng, 500, 100))
	a, err := ix.PartitionBucketed(10.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.PartitionBucketed(10.5) // same 1.25^k bucket as 10.0? round up both
	if err != nil {
		t.Fatal(err)
	}
	if a.Radius == b.Radius && a != b {
		t.Error("equal buckets must share a partition instance")
	}
	c, err := ix.PartitionBucketed(10.0)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("repeated radius must hit the cache")
	}
	if ix.CacheLen() == 0 {
		t.Error("cache should hold entries")
	}
}

func TestBucketedInfiniteRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ix := newIndex(t, randPoints(rng, 100, 50))
	a, err := ix.PartitionBucketed(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.PartitionBucketed(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("infinite radius should cache as one bucket")
	}
	if len(a.Subspaces) != 1 {
		t.Errorf("infinite radius subspaces = %d", len(a.Subspaces))
	}
}

func TestBucketedInvalidRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	ix := newIndex(t, randPoints(rng, 10, 10))
	for _, r := range []float64{0, -3, math.NaN()} {
		if _, err := ix.PartitionBucketed(r); err == nil {
			t.Errorf("radius %g should be rejected", r)
		}
	}
}

func TestBucketedEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ix := newIndex(t, randPoints(rng, 100, 100))
	for i := 0; i < cacheCap*3; i++ {
		radius := math.Pow(bucketFactor, float64(i+1))
		if _, err := ix.PartitionBucketed(radius); err != nil {
			t.Fatal(err)
		}
	}
	if got := ix.CacheLen(); got > cacheCap {
		t.Errorf("cache grew to %d, cap %d", got, cacheCap)
	}
}

func TestBucketedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ix := newIndex(t, randPoints(rng, 1000, 100))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				radius := 5.0 + float64((w+i)%4)*10
				if _, err := ix.PartitionBucketed(radius); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
