package simil

import (
	"math/rand"
	"testing"
)

// memoModes applies each memo configuration to a freshly built context:
// the batched kernels must be bit-for-bit against the scalar path in
// both.
var memoModes = []struct {
	name  string
	setup func(c *Context)
}{
	{"direct", func(c *Context) {}},
	{"shared", func(c *Context) { c.PrepareMemoShared() }},
}

func TestAttrSimBatchMatchesScalar(t *testing.T) {
	for _, mode := range memoModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(63))
			// Two independent contexts over the same dataset/query so the
			// scalar reference cannot share memo state with the batch.
			cb, _ := newCtx(t, rng, 3, 1.5)
			rng = rand.New(rand.NewSource(63))
			cs, _ := newCtx(t, rng, 3, 1.5)
			mode.setup(cb)
			mode.setup(cs)
			// Mixed-category positions with repeats: the batch must handle
			// off-category entries (memo bypass) and memoised rereads.
			n := cb.DS.Len()
			positions := make([]int32, 0, 2*n)
			for i := 0; i < n; i++ {
				positions = append(positions, int32(i))
			}
			for i := 0; i < n; i++ {
				positions = append(positions, int32(rng.Intn(n)))
			}
			dst := make([]float64, len(positions))
			for d := 0; d < cb.M; d++ {
				cb.AttrSimBatch(d, positions, dst)
				for i, pos := range positions {
					if want := cs.AttrSim(d, pos); dst[i] != want {
						t.Fatalf("dim %d pos %d: batch %v, scalar %v", d, pos, dst[i], want)
					}
				}
			}
		})
	}
}

// candidatesInto is the scalar reference for CandidatesBatchInto: each
// position of dim's category scored with AttrSim, in order, appended
// to dst, and the whole sorted.
func candidatesInto(c *Context, dst []Cand, dim int, positions []int32) []Cand {
	for _, pos := range positions {
		if c.DS.Category(int(pos)) == c.Ex.Categories[dim] {
			dst = append(dst, Cand{Pos: pos, Sim: c.AttrSim(dim, pos)})
		}
	}
	SortCandidates(dst)
	return dst
}

func TestCandidatesBatchIntoMatchesCandidatesInto(t *testing.T) {
	for _, mode := range memoModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(64))
			c, _ := newCtx(t, rng, 3, 1.5)
			mode.setup(c)
			all := make([]int32, c.DS.Len())
			for i := range all {
				all[i] = int32(i)
			}
			var bs BatchScratch
			dst := make([]Cand, 0, c.DS.Len())
			ref := make([]Cand, 0, c.DS.Len())
			for d := 0; d < c.M; d++ {
				got := c.CandidatesBatchInto(dst[:0], d, all, &bs)
				want := candidatesInto(c, ref[:0], d, all)
				if len(got) != len(want) {
					t.Fatalf("dim %d: batch len %d, scalar len %d", d, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("dim %d entry %d: batch %+v, scalar %+v", d, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestDistVectorsOfPositionsMatchesScalar(t *testing.T) {
	cases := []struct {
		name string
		ctx  func(t *testing.T, rng *rand.Rand) *Context
	}{
		{"euclidean", func(t *testing.T, rng *rand.Rand) *Context {
			c, _ := newCtx(t, rng, 3, 1.5)
			return c
		}},
		{"masked", func(t *testing.T, rng *rand.Rand) *Context {
			c, _ := maskedCtx(t, rng, [][2]int{{0, 2}}, nil)
			return c
		}},
		{"metric", func(t *testing.T, rng *rand.Rand) *Context {
			c, _ := maskedCtx(t, rng, nil, scaledMetric{f: 3})
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(65))
			c := tc.ctx(t, rng)
			m := c.M
			const rows = 37 // not a multiple of any block size
			tuples := make([]int32, rows*m)
			for i := range tuples {
				tuples[i] = int32(rng.Intn(c.DS.Len()))
			}
			got := c.DistVectorsOfPositions(tuples, m, nil)
			if len(got) != rows*c.Pairs {
				t.Fatalf("got %d distances, want %d rows x %d pairs", len(got), rows, c.Pairs)
			}
			var ref []float64
			for r := 0; r < rows; r++ {
				ref = c.DistVectorOfPositions(tuples[r*m:r*m+m], ref[:0])
				row := got[r*c.Pairs : (r+1)*c.Pairs]
				for i := range ref {
					if row[i] != ref[i] {
						t.Fatalf("row %d pair %d: batch %v, scalar %v", r, i, row[i], ref[i])
					}
				}
			}
		})
	}
}

// The batched kernels must not allocate in steady state with warm
// buffers, in the uncached and shared-memo modes the parallel hot paths
// use.
func TestBatchKernelsZeroAlloc(t *testing.T) {
	for _, shared := range []bool{false, true} {
		rng := rand.New(rand.NewSource(66))
		c, _ := newCtx(t, rng, 3, 1.5)
		if shared {
			c.PrepareMemoShared()
		}
		all := make([]int32, c.DS.Len())
		for i := range all {
			all[i] = int32(i)
		}
		dst := make([]float64, len(all))
		if allocs := testing.AllocsPerRun(20, func() {
			c.AttrSimBatch(0, all, dst)
		}); allocs != 0 {
			t.Errorf("shared=%v: AttrSimBatch allocated %v per run", shared, allocs)
		}

		var bs BatchScratch
		cands := make([]Cand, 0, c.DS.Len())
		cands = c.CandidatesBatchInto(cands, 0, all, &bs) // warm buffers
		if allocs := testing.AllocsPerRun(20, func() {
			cands = c.CandidatesBatchInto(cands[:0], 0, all, &bs)
		}); allocs != 0 {
			t.Errorf("shared=%v: CandidatesBatchInto allocated %v per run", shared, allocs)
		}

		const rows = 32
		tuples := make([]int32, rows*c.M)
		for i := range tuples {
			tuples[i] = int32(rng.Intn(c.DS.Len()))
		}
		dists := c.DistVectorsOfPositions(tuples, c.M, nil) // warm
		if allocs := testing.AllocsPerRun(20, func() {
			dists = c.DistVectorsOfPositions(tuples, c.M, dists)
		}); allocs != 0 {
			t.Errorf("shared=%v: DistVectorsOfPositions allocated %v per run", shared, allocs)
		}
	}
}

func BenchmarkAttrSimScalarLoop(b *testing.B) {
	c := benchContext(b)
	cands := c.DS.CategoryObjects(c.Ex.Categories[0])
	dst := make([]float64, len(cands))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, pos := range cands {
			dst[j] = c.AttrSim(0, pos)
		}
	}
	benchSimSink = dst[0]
}

func BenchmarkAttrSimBatch(b *testing.B) {
	c := benchContext(b)
	cands := c.DS.CategoryObjects(c.Ex.Categories[0])
	dst := make([]float64, len(cands))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AttrSimBatch(0, cands, dst)
	}
	benchSimSink = dst[0]
}

var benchCandSink []Cand

func BenchmarkCandidatesBatchInto(b *testing.B) {
	c := benchContext(b)
	all := make([]int32, c.DS.Len())
	for i := range all {
		all[i] = int32(i)
	}
	var bs BatchScratch
	dst := make([]Cand, 0, c.DS.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.CandidatesBatchInto(dst[:0], 0, all, &bs)
	}
	benchCandSink = dst
}

var benchDistSink []float64

func BenchmarkDistVectorsOfPositions(b *testing.B) {
	c := benchContext(b)
	rng := rand.New(rand.NewSource(67))
	const rows = 256
	tuples := make([]int32, rows*c.M)
	for i := range tuples {
		tuples[i] = int32(rng.Intn(c.DS.Len()))
	}
	dst := c.DistVectorsOfPositions(tuples, c.M, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = c.DistVectorsOfPositions(tuples, c.M, dst)
	}
	benchDistSink = dst
}

func BenchmarkDistVectorOfPositionsScalarLoop(b *testing.B) {
	c := benchContext(b)
	rng := rand.New(rand.NewSource(67))
	const rows = 256
	tuples := make([]int32, rows*c.M)
	for i := range tuples {
		tuples[i] = int32(rng.Intn(c.DS.Len()))
	}
	dst := make([]float64, 0, c.Pairs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			dst = c.DistVectorOfPositions(tuples[r*c.M:r*c.M+c.M], dst[:0])
		}
	}
	benchDistSink = dst
}
