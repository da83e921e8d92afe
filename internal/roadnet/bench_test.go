package roadnet

import (
	"fmt"
	"math/rand"
	"testing"

	"spatialseq/internal/geo"
)

// snapSink keeps the benchmarked snaps from being optimised away.
var snapSink int32

// BenchmarkSnapNode snaps random points inside the bounds to a street
// grid of 21 x 21 and one of 300 x 300 nodes. The travel-distance metric
// snaps twice per distance.
func BenchmarkSnapNode(b *testing.B) {
	for _, side := range []int{21, 300} {
		net, err := Grid(GridConfig{
			Bounds: geo.Rect{MaxX: 100, MaxY: 100},
			NX:     side, NY: side,
			DropFrac: 0.1,
			Meander:  0.3,
			Seed:     1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		qs := make([]geo.Point, 1024)
		for i := range qs {
			qs[i] = geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		}
		b.Run(fmt.Sprintf("nodes=%d", side*side), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snapSink = net.SnapNode(qs[i%len(qs)])
			}
		})
	}
}
