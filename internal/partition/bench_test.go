package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialseq/internal/dataset"
)

// benchIndex indexes 100,000 uniform points over a 400 x 400 square in
// 20 categories.
func benchIndex(b *testing.B) *Index {
	rng := rand.New(rand.NewSource(1))
	return NewIndex(pointsDataset(b, randPoints(rng, 100000, 400), 20))
}

// BenchmarkPartition measures a partition build, which a query pays
// when its radius bucket is not cached: a walk of the index that counts
// the cores, and one that fills them. A radius of 2 gives about 70,000
// cores, one of 40 about 290.
func BenchmarkPartition(b *testing.B) {
	ix := benchIndex(b)
	for _, radius := range []float64{2, 40} {
		b.Run(fmt.Sprintf("n=100k/r=%g", radius), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ix.Partition(radius); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGather gathers one category over every ac rectangle of the
// radius-10 partition, as the candidate lists of a query that searches
// every subspace do.
func BenchmarkGather(b *testing.B) {
	ix := benchIndex(b)
	part, err := ix.Partition(10)
	if err != nil {
		b.Fatal(err)
	}
	var dst []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range part.Subspaces {
			dst = ix.Gather(dst[:0], 3, part.Subspaces[j].AC)
		}
	}
}

// nearestSink keeps the benchmarked searches from being optimised away.
var nearestSink []Neighbor

// BenchmarkNearest finds the k objects nearest to random points, among
// all of them and within one category, as Engine.Snap does.
func BenchmarkNearest(b *testing.B) {
	ix := benchIndex(b)
	qs := randPoints(rand.New(rand.NewSource(2)), 1024, 400)
	for _, k := range []int{1, 5} {
		for _, cat := range []dataset.CategoryID{dataset.NoCategory, 3} {
			b.Run(fmt.Sprintf("n=100k/k=%d/cat=%d", k, cat), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					nearestSink = ix.Nearest(qs[i%len(qs)], k, cat)
				}
			})
		}
	}
}
