package dataset

import (
	"math"
	"strings"
	"testing"

	"spatialseq/internal/geo"
)

func buildSmall(t testing.TB) *Dataset {
	t.Helper()
	b := &Builder{}
	ca := b.Category("restaurant")
	cb := b.Category("gym")
	objs := []Object{
		{ID: 0, Loc: geo.Point{X: 1, Y: 2}, Category: ca, Attr: []float64{0.5, 0.2}, Name: "r1"},
		{ID: 1, Loc: geo.Point{X: 3, Y: 4}, Category: cb, Attr: []float64{0.1, 0.9}, Name: "g1"},
		{ID: 2, Loc: geo.Point{X: 5, Y: 0}, Category: ca, Attr: []float64{0.7, 0.7}, Name: "r2"},
	}
	for _, o := range objs {
		b.Add(o)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuilderBasics(t *testing.T) {
	ds := buildSmall(t)
	if ds.Len() != 3 {
		t.Errorf("Len = %d", ds.Len())
	}
	if ds.AttrDim() != 2 {
		t.Errorf("AttrDim = %d", ds.AttrDim())
	}
	if ds.NumCategories() != 2 {
		t.Errorf("NumCategories = %d", ds.NumCategories())
	}
	if name := ds.CategoryName(0); name != "restaurant" {
		t.Errorf("CategoryName(0) = %q", name)
	}
	if id, ok := ds.CategoryByName("gym"); !ok || id != 1 {
		t.Errorf("CategoryByName = %d, %v", id, ok)
	}
	if _, ok := ds.CategoryByName("nope"); ok {
		t.Error("unknown category should not resolve")
	}
	if got := ds.CategoryObjects(0); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("CategoryObjects(0) = %v", got)
	}
	if got := ds.CategoryObjects(-1); got != nil {
		t.Errorf("out-of-range CategoryObjects = %v", got)
	}
	want := geo.Rect{MinX: 1, MinY: 0, MaxX: 5, MaxY: 4}
	if ds.Bounds() != want {
		t.Errorf("Bounds = %v, want %v", ds.Bounds(), want)
	}
	sizes := ds.CategorySizes()
	if sizes[0] != 2 || sizes[1] != 1 {
		t.Errorf("CategorySizes = %v", sizes)
	}
}

func TestCategoryInterning(t *testing.T) {
	b := &Builder{}
	a1 := b.Category("x")
	a2 := b.Category("x")
	if a1 != a2 {
		t.Error("same name must intern to same ID")
	}
}

func TestBuilderRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		obj  func(b *Builder) Object
	}{
		{"unknown category", func(b *Builder) Object {
			return Object{Category: 99, Attr: []float64{1}}
		}},
		{"negative attr", func(b *Builder) Object {
			return Object{Category: b.Category("c"), Attr: []float64{-1}}
		}},
		{"NaN attr", func(b *Builder) Object {
			return Object{Category: b.Category("c"), Attr: []float64{math.NaN()}}
		}},
		{"Inf attr", func(b *Builder) Object {
			return Object{Category: b.Category("c"), Attr: []float64{math.Inf(1)}}
		}},
		{"NaN location", func(b *Builder) Object {
			return Object{Category: b.Category("c"), Loc: geo.Point{X: math.NaN()}, Attr: []float64{1}}
		}},
	}
	for _, c := range cases {
		b := &Builder{}
		b.Add(c.obj(b))
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build should fail", c.name)
		}
	}
}

// TestBuildRejectsOverflowingNorm: an attribute vector whose squared
// norm overflows has an infinite norm, so its cosines would read 0 or
// NaN. Build rejects it and keeps a large vector whose square still fits.
func TestBuildRejectsOverflowingNorm(t *testing.T) {
	for _, c := range []struct {
		attr []float64
		ok   bool
	}{
		{[]float64{1e200, 1}, false},
		{[]float64{1e154, 1e154}, false},
		{[]float64{1e150, 1}, true},
	} {
		b := &Builder{}
		b.Add(Object{ID: 7, Category: b.Category("c"), Attr: c.attr})
		if _, err := b.Build(); (err == nil) != c.ok {
			t.Errorf("Build with attributes %v: err = %v, want ok = %v", c.attr, err, c.ok)
		}
	}
}

func TestBuilderRejectsDimMismatch(t *testing.T) {
	b := &Builder{}
	c := b.Category("c")
	b.Add(Object{ID: 0, Category: c, Attr: []float64{1, 2}})
	b.Add(Object{ID: 1, Category: c, Attr: []float64{1}})
	if _, err := b.Build(); err == nil {
		t.Error("attribute dimension mismatch should fail")
	}
}

func TestEmptyBuild(t *testing.T) {
	b := &Builder{}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 0 || !ds.Bounds().IsEmpty() {
		t.Error("empty dataset should have empty bounds")
	}
}

func TestSample(t *testing.T) {
	ds := buildSmall(t)
	s, err := ds.Sample(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("sample Len = %d", s.Len())
	}
	if s.NumCategories() != ds.NumCategories() {
		t.Error("sample must keep the category table")
	}
	// deterministic
	s2, err := ds.Sample(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Len(); i++ {
		if s.Object(i).ID != s2.Object(i).ID {
			t.Error("same seed must give same sample")
		}
	}
	if _, err := ds.Sample(0, 1); err == nil {
		t.Error("sample size 0 should fail")
	}
	if _, err := ds.Sample(4, 1); err == nil {
		t.Error("oversized sample should fail")
	}
}

func TestSampleNesting(t *testing.T) {
	// Same seed: a smaller sample's objects are a subset of a larger one's
	// (paper-style nested sampling).
	b := &Builder{}
	c := b.Category("c")
	for i := 0; i < 100; i++ {
		b.Add(Object{ID: int64(i), Loc: geo.Point{X: float64(i), Y: 0}, Category: c, Attr: []float64{1}})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	small, _ := ds.Sample(20, 5)
	large, _ := ds.Sample(60, 5)
	inLarge := map[int64]bool{}
	for i := 0; i < large.Len(); i++ {
		inLarge[large.Object(i).ID] = true
	}
	for i := 0; i < small.Len(); i++ {
		if !inLarge[small.Object(i).ID] {
			t.Fatalf("object %d in small sample missing from large sample", small.Object(i).ID)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := buildSmall(t)
	var sb strings.Builder
	if err := WriteCSV(&sb, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Fatalf("round trip Len = %d", got.Len())
	}
	for i := 0; i < ds.Len(); i++ {
		a, b := ds.Object(i), got.Object(i)
		if a.ID != b.ID || a.Loc != b.Loc || a.Name != b.Name {
			t.Errorf("object %d diverged: %+v vs %+v", i, a, b)
		}
		if ds.CategoryName(a.Category) != got.CategoryName(b.Category) {
			t.Errorf("object %d category diverged", i)
		}
		for j := range a.Attr {
			if a.Attr[j] != b.Attr[j] {
				t.Errorf("object %d attr %d diverged", i, j)
			}
		}
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, csv string
	}{
		{"bad header", "nope,x\n"},
		{"bad id", "id,x,y,category,name,attr0\nzz,1,2,c,n,0.5\n"},
		{"bad x", "id,x,y,category,name,attr0\n1,zz,2,c,n,0.5\n"},
		{"bad attr", "id,x,y,category,name,attr0\n1,1,2,c,n,zz\n"},
		{"negative attr", "id,x,y,category,name,attr0\n1,1,2,c,n,-3\n"},
		{"empty", ""},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.csv)); err == nil {
			t.Errorf("%s: ReadCSV should fail", c.name)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	ds := buildSmall(t)
	path := t.TempDir() + "/ds.csv"
	if err := WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != ds.Len() {
		t.Errorf("file round trip Len = %d", got.Len())
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}
