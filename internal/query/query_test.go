package query

import (
	"math"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
)

func smallDS(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := &dataset.Builder{}
	ca := b.Category("a")
	cb := b.Category("b")
	b.Add(dataset.Object{ID: 0, Loc: geo.Point{X: 0, Y: 0}, Category: ca, Attr: []float64{0.5, 0.5}})
	b.Add(dataset.Object{ID: 1, Loc: geo.Point{X: 1, Y: 1}, Category: cb, Attr: []float64{0.2, 0.8}})
	b.Add(dataset.Object{ID: 2, Loc: geo.Point{X: 2, Y: 0}, Category: ca, Attr: []float64{0.9, 0.1}})
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func validExample() Example {
	return Example{
		Categories: []dataset.CategoryID{0, 1},
		Locations:  []geo.Point{{X: 0, Y: 0}, {X: 3, Y: 4}},
		Attrs:      [][]float64{{0.5, 0.5}, {0.3, 0.7}},
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.K != 5 || p.Alpha != 0.5 || p.Beta != 1.5 || p.GridD != 5 || p.Xi != 10 {
		t.Errorf("DefaultParams = %+v", p)
	}
}

func TestNormalizeFillsDefaults(t *testing.T) {
	p, err := Params{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if p != DefaultParams() {
		t.Errorf("zero params should normalize to defaults, got %+v", p)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []Params{
		{K: -1},
		{Alpha: 1.5},
		{Alpha: -0.2},
		{Alpha: math.NaN()},
		{Beta: 0.5},
		{Beta: math.NaN()},
		{GridD: -3},
	}
	for i, p := range bad {
		if _, err := p.Normalize(); err == nil {
			t.Errorf("params %d (%+v) should be rejected", i, p)
		}
	}
}

func TestNormalizeAcceptsInfBeta(t *testing.T) {
	p := Params{Beta: math.Inf(1)}
	got, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.Beta, 1) {
		t.Error("infinite beta should survive normalization")
	}
}

func TestExampleBasics(t *testing.T) {
	ex := validExample()
	if ex.M() != 2 {
		t.Errorf("M = %d", ex.M())
	}
	if n := ex.Norm(); math.Abs(n-5) > 1e-12 {
		t.Errorf("Norm = %g, want 5", n)
	}
	v := ex.DistVector()
	if len(v) != 1 || math.Abs(v[0]-5) > 1e-12 {
		t.Errorf("DistVector = %v", v)
	}
	if ex.FixedDim(0) != -1 {
		t.Error("no pins expected")
	}
	ex.Fixed = []FixedPoint{{Dim: 1, Obj: 1}}
	if ex.FixedDim(1) != 1 {
		t.Error("FixedDim should find the pin")
	}
}

func TestExampleValidate(t *testing.T) {
	ds := smallDS(t)
	ex := validExample()
	if err := ex.Validate(ds); err != nil {
		t.Fatalf("valid example rejected: %v", err)
	}

	tooSmall := Example{Categories: []dataset.CategoryID{0}, Locations: []geo.Point{{}}, Attrs: [][]float64{{0.1, 0.2}}}
	if err := tooSmall.Validate(ds); err == nil {
		t.Error("m=1 should be rejected")
	}

	mismatch := validExample()
	mismatch.Locations = mismatch.Locations[:1]
	if err := mismatch.Validate(ds); err == nil {
		t.Error("dimension mismatch should be rejected")
	}

	badCat := validExample()
	badCat.Categories[0] = 99
	if err := badCat.Validate(ds); err == nil {
		t.Error("unknown category should be rejected")
	}

	badAttrLen := validExample()
	badAttrLen.Attrs[0] = []float64{1}
	if err := badAttrLen.Validate(ds); err == nil {
		t.Error("attr length mismatch should be rejected")
	}

	badAttrVal := validExample()
	badAttrVal.Attrs[0] = []float64{-1, 0.5}
	if err := badAttrVal.Validate(ds); err == nil {
		t.Error("negative attr should be rejected")
	}

	badPinDim := validExample()
	badPinDim.Fixed = []FixedPoint{{Dim: 5, Obj: 0}}
	if err := badPinDim.Validate(ds); err == nil {
		t.Error("out-of-range pin dim should be rejected")
	}

	dupPin := validExample()
	dupPin.Fixed = []FixedPoint{{Dim: 0, Obj: 0}, {Dim: 0, Obj: 2}}
	if err := dupPin.Validate(ds); err == nil {
		t.Error("duplicate pin dim should be rejected")
	}

	badPinObj := validExample()
	badPinObj.Fixed = []FixedPoint{{Dim: 0, Obj: 99}}
	if err := badPinObj.Validate(ds); err == nil {
		t.Error("out-of-range pin object should be rejected")
	}

	wrongCatPin := validExample()
	wrongCatPin.Fixed = []FixedPoint{{Dim: 0, Obj: 1}} // object 1 is category b, dim 0 wants a
	if err := wrongCatPin.Validate(ds); err == nil {
		t.Error("category-mismatched pin should be rejected")
	}
}

// TestExampleValidateBoundsM: an example of MaxM objects validates and
// one of MaxM+1 does not, before anything sized by m is allocated.
func TestExampleValidateBoundsM(t *testing.T) {
	ds := smallDS(t)
	for _, c := range []struct {
		m  int
		ok bool
	}{{MaxM, true}, {MaxM + 1, false}} {
		var ex Example
		for i := 0; i < c.m; i++ {
			ex.Categories = append(ex.Categories, dataset.CategoryID(i%2))
			ex.Locations = append(ex.Locations, geo.Point{X: float64(i), Y: float64(i * i)})
			ex.Attrs = append(ex.Attrs, []float64{0.5, 0.5})
		}
		if err := ex.Validate(ds); (err == nil) != c.ok {
			t.Errorf("m = %d: Validate = %v, want ok = %v", c.m, err, c.ok)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	ds := smallDS(t)

	q := &Query{Variant: CSEQ, Example: validExample()}
	if err := q.Validate(ds); err != nil {
		t.Fatalf("valid CSEQ rejected: %v", err)
	}
	if q.Params.K != 5 {
		t.Error("Validate should normalize params in place")
	}

	fp := &Query{Variant: CSEQFP, Example: validExample()}
	if err := fp.Validate(ds); err == nil {
		t.Error("CSEQ-FP without pins should be rejected")
	}

	pinned := &Query{Variant: CSEQ, Example: validExample()}
	pinned.Example.Fixed = []FixedPoint{{Dim: 0, Obj: 0}}
	if err := pinned.Validate(ds); err == nil {
		t.Error("pins on a non-FP variant should be rejected")
	}
}

// TestValidateRejectsOverflowingNorm: an example attribute vector whose
// squared norm overflows would score NaN against an object with the
// same attributes and 0 against {1, 1}, where the true cosine is about
// 0.71. Validate rejects it; the server answers such a request with 400.
func TestValidateRejectsOverflowingNorm(t *testing.T) {
	ds := smallDS(t)
	for _, c := range []struct {
		attr []float64
		ok   bool
	}{
		{[]float64{1e200, 1}, false},
		{[]float64{1e154, 1e154}, false},
		{[]float64{1e150, 1}, true},
	} {
		q := &Query{Variant: CSEQ, Example: validExample()}
		q.Example.Attrs[1] = c.attr
		if err := q.Validate(ds); (err == nil) != c.ok {
			t.Errorf("Validate with attributes %v: err = %v, want ok = %v", c.attr, err, c.ok)
		}
	}
}

func TestEffectiveBeta(t *testing.T) {
	q := &Query{Variant: SEQ, Params: Params{Beta: 1.5}}
	if !math.IsInf(q.EffectiveBeta(), 1) {
		t.Error("SEQ should behave as beta=+Inf")
	}
	q.Variant = CSEQ
	if q.EffectiveBeta() != 1.5 {
		t.Errorf("EffectiveBeta = %g", q.EffectiveBeta())
	}
}

func TestVariantString(t *testing.T) {
	if CSEQ.String() != "CSEQ" || SEQ.String() != "SEQ" || CSEQFP.String() != "CSEQ-FP" {
		t.Error("variant strings wrong")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant should still print")
	}
}

func TestGridDForEpsilon(t *testing.T) {
	d, err := GridDForEpsilon(0.1, 30, 10, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// maxCell = 0.1*10/(2*1.5*sqrt(6)) ≈ 0.136; D = ceil(30/0.136) = 221
	maxCell := 0.1 * 10 / (2 * 1.5 * math.Sqrt(6))
	want := int(math.Ceil(30 / maxCell))
	if d != want {
		t.Errorf("GridDForEpsilon = %d, want %d", d, want)
	}
	if _, err := GridDForEpsilon(0, 1, 1, 1, 3); err == nil {
		t.Error("eps=0 should fail")
	}
	if _, err := GridDForEpsilon(0.1, 1, 1, 1, 1); err == nil {
		t.Error("m=1 should fail")
	}
}
