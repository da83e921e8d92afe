package simil

import (
	"math/rand"
	"sync"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
	"spatialseq/internal/vectormath"
)

// attrSimOracle is the unfactored reference: the full cosine over the
// example dimension's attributes and the object's attributes.
func attrSimOracle(c *Context, dim int, pos int32) float64 {
	return vectormath.Cos(c.Ex.Attrs[dim], c.DS.Object(int(pos)).Attr)
}

// AttrSim without any memo must already match the full cosine bit-for-bit:
// the prenormed decomposition may not perturb a single result.
func TestAttrSimMatchesCosOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c, _ := newCtx(t, rng, 3, 1.5)
	for d := 0; d < c.M; d++ {
		for pos := int32(0); pos < int32(c.DS.Len()); pos++ {
			if got, want := c.AttrSim(d, pos), attrSimOracle(c, d, pos); got != want {
				t.Fatalf("dim %d pos %d: AttrSim = %v, Cos = %v", d, pos, got, want)
			}
		}
	}
}

func TestPrepareMemoShared(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	c, _ := newCtx(t, rng, 3, 1.5)
	var universe int64
	for d := 0; d < c.M; d++ {
		universe += int64(len(c.DS.CategoryObjects(c.Ex.Categories[d])))
	}
	if got := c.PrepareMemoShared(); got != universe {
		t.Errorf("PrepareMemoShared computed %d cosines, want %d", got, universe)
	}
	if !c.MemoShared() {
		t.Error("MemoShared should report true after PrepareMemoShared")
	}
	if got := c.PrepareMemoShared(); got != 0 {
		t.Errorf("second PrepareMemoShared = %d, want 0", got)
	}
	for d := 0; d < c.M; d++ {
		for pos := int32(0); pos < int32(c.DS.Len()); pos++ {
			if got, want := c.AttrSim(d, pos), attrSimOracle(c, d, pos); got != want {
				t.Fatalf("dim %d pos %d: shared-memo AttrSim = %v, Cos = %v", d, pos, got, want)
			}
		}
	}
}

func TestPrepareMemoSharedFixedDim(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	ds := testutil.RandDataset(rng, 120, 3, 4, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	cands := ds.CategoryObjects(q.Example.Categories[0])
	if len(cands) == 0 {
		t.Skip("no candidates in dimension 0's category")
	}
	q.Example.Fixed = []query.FixedPoint{{Dim: 0, Obj: cands[0]}}
	q.Variant = query.CSEQFP
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	c := NewContext(ds, q)
	want := int64(1) // the pinned entry only for dim 0
	for d := 1; d < c.M; d++ {
		want += int64(len(ds.CategoryObjects(q.Example.Categories[d])))
	}
	if got := c.PrepareMemoShared(); got != want {
		t.Errorf("PrepareMemoShared with fixed dim computed %d, want %d", got, want)
	}
	// pinned entry answers from the table; unpinned same-category entries
	// fall through to the direct kernel — both must match the oracle
	for _, pos := range cands {
		if got, wantv := c.AttrSim(0, pos), attrSimOracle(c, 0, pos); got != wantv {
			t.Fatalf("fixed dim pos %d: %v != %v", pos, got, wantv)
		}
	}
}

// The shared memo is read-only after PrepareMemoShared; concurrent lookups
// from many goroutines must be race-free (the suite runs under -race) and
// still exact.
func TestMemoSharedConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	c, _ := newCtx(t, rng, 3, 1.5)
	c.PrepareMemoShared()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < c.M; d++ {
				for pos := int32(0); pos < int32(c.DS.Len()); pos++ {
					if c.AttrSim(d, pos) != attrSimOracle(c, d, pos) {
						select {
						case errCh <- errMismatch:
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

var errMismatch = errText("concurrent AttrSim diverged from oracle")

type errText string

func (e errText) Error() string { return string(e) }

// A dataset object with an all-zero attribute vector exercises the
// zero-norm convention (cosine 0 against any non-zero example) through the
// filled memo.
func TestMemoZeroNormConvention(t *testing.T) {
	b := &dataset.Builder{}
	cat := b.Category("only")
	rng := rand.New(rand.NewSource(59))
	for i := 0; i < 6; i++ {
		attr := []float64{rng.Float64() + 0.1, rng.Float64() + 0.1}
		if i == 2 {
			attr = []float64{0, 0}
		}
		b.Add(dataset.Object{
			ID:       int64(i),
			Loc:      geo.Point{X: float64(i) * 3, Y: float64(i % 2)},
			Category: cat,
			Attr:     attr,
		})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	params := query.Params{K: 2, Alpha: 0.5, Beta: 5, GridD: 2, Xi: 4}
	q := testutil.RandQuery(rng, ds, 2, 10, params)
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	c := NewContext(ds, q)
	c.PrepareMemoShared()
	for pass := 0; pass < 2; pass++ {
		for d := 0; d < c.M; d++ {
			if got, want := c.AttrSim(d, 2), attrSimOracle(c, d, 2); got != want {
				t.Fatalf("pass %d dim %d: zero-attr AttrSim = %v, want %v", pass, d, got, want)
			}
			if got := c.AttrSim(d, 2); got != 0 {
				t.Fatalf("zero-attr cosine against non-zero example = %v, want 0", got)
			}
		}
	}
}

func benchContext(b *testing.B) *Context {
	b.Helper()
	rng := rand.New(rand.NewSource(62))
	ds := testutil.RandDataset(rng, 2000, 3, 8, 100)
	params := query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	if err := q.Validate(ds); err != nil {
		b.Fatal(err)
	}
	return NewContext(ds, q)
}

var benchSimSink float64

func BenchmarkAttrSimDirect(b *testing.B) {
	c := benchContext(b)
	cands := c.DS.CategoryObjects(c.Ex.Categories[0])
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += c.AttrSim(0, cands[i%len(cands)])
	}
	benchSimSink = s
}

func BenchmarkAttrSimMemo(b *testing.B) {
	c := benchContext(b)
	c.PrepareMemoShared()
	cands := c.DS.CategoryObjects(c.Ex.Categories[0])
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += c.AttrSim(0, cands[i%len(cands)])
	}
	benchSimSink = s
}
