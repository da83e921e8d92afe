// Package dataset defines the POI data model of the example-based spatial
// search system: objects with a location, a category and an attribute
// vector, collected into an immutable Dataset with per-category indexes.
//
// A Dataset is built once (from a generator or a file) and then shared,
// read-only, by every query; all algorithm state is per-query, so a single
// Dataset is safe for concurrent searches.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"spatialseq/internal/geo"
)

// CategoryID identifies an object category ("restaurant", "gym", ...).
// IDs are dense indexes into the dataset's category table.
type CategoryID int32

// NoCategory is the invalid category sentinel.
const NoCategory CategoryID = -1

// Object is a point of interest. Attr is its attribute vector; within one
// dataset all objects carry vectors of the same length, with non-negative
// entries (the cosine attribute similarity of the paper assumes an
// all-positive orthant, which keeps SIMa in [0,1]).
type Object struct {
	ID       int64
	Loc      geo.Point
	Category CategoryID
	Attr     []float64
	Name     string
}

// Dataset is an immutable collection of objects plus derived indexes.
//
// Alongside the array-of-structs object slice, Build derives
// structure-of-arrays views of the hot fields (coordinates, categories,
// attribute norms, a flat attribute matrix): the similarity kernels scan
// those contiguous slices instead of chasing ~70-byte Object structs per
// candidate.
type Dataset struct {
	objects    []Object
	categories []string
	catIndex   map[string]CategoryID
	byCategory [][]int32 // object positions per category
	bounds     geo.Rect
	attrDim    int

	// SoA hot-path views, aligned with objects by position.
	xs, ys    []float64    // coordinates
	cats      []CategoryID // categories
	attrNorms []float64    // Euclidean norms of the attribute vectors
	catRank   []int32      // index of the position within byCategory[cat]
	attrFlat  []float64    // row-major attribute matrix, stride attrDim
}

// Builder accumulates objects and category names before freezing them into
// a Dataset. The zero value is ready to use.
type Builder struct {
	objects    []Object
	categories []string
	catIndex   map[string]CategoryID
	attrDim    int
	err        error
}

// Category interns name and returns its ID, creating it on first use.
func (b *Builder) Category(name string) CategoryID {
	if b.catIndex == nil {
		b.catIndex = make(map[string]CategoryID)
	}
	if id, ok := b.catIndex[name]; ok {
		return id
	}
	id := CategoryID(len(b.categories))
	b.categories = append(b.categories, name)
	b.catIndex[name] = id
	return id
}

// Add appends an object. The first object fixes the attribute
// dimensionality; later objects must match it. Invalid objects record an
// error that Build will return.
func (b *Builder) Add(obj Object) {
	if b.err != nil {
		return
	}
	if obj.Category < 0 || int(obj.Category) >= len(b.categories) {
		b.err = fmt.Errorf("dataset: object %d has unknown category %d", obj.ID, obj.Category)
		return
	}
	if len(b.objects) == 0 {
		b.attrDim = len(obj.Attr)
	} else if len(obj.Attr) != b.attrDim {
		b.err = fmt.Errorf("dataset: object %d has %d attributes, want %d", obj.ID, len(obj.Attr), b.attrDim)
		return
	}
	for _, a := range obj.Attr {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			b.err = fmt.Errorf("dataset: object %d has non-finite attribute", obj.ID)
			return
		}
		if a < 0 {
			b.err = fmt.Errorf("dataset: object %d has negative attribute %g", obj.ID, a)
			return
		}
	}
	if math.IsNaN(obj.Loc.X) || math.IsNaN(obj.Loc.Y) || math.IsInf(obj.Loc.X, 0) || math.IsInf(obj.Loc.Y, 0) {
		b.err = fmt.Errorf("dataset: object %d has non-finite location", obj.ID)
		return
	}
	b.objects = append(b.objects, obj)
}

// Build freezes the builder into a Dataset. The builder must not be used
// afterwards.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	ds := &Dataset{
		objects:    b.objects,
		categories: b.categories,
		catIndex:   b.catIndex,
		attrDim:    b.attrDim,
		bounds:     geo.EmptyRect(),
	}
	if ds.catIndex == nil {
		ds.catIndex = make(map[string]CategoryID)
	}
	ds.byCategory = make([][]int32, len(ds.categories))
	n := len(ds.objects)
	ds.xs = make([]float64, n)
	ds.ys = make([]float64, n)
	ds.cats = make([]CategoryID, n)
	ds.attrNorms = make([]float64, n)
	ds.catRank = make([]int32, n)
	ds.attrFlat = make([]float64, n*ds.attrDim)
	for i := range ds.objects {
		o := &ds.objects[i]
		ds.bounds = ds.bounds.ExtendPoint(o.Loc)
		ds.catRank[i] = int32(len(ds.byCategory[o.Category]))
		ds.byCategory[o.Category] = append(ds.byCategory[o.Category], int32(i))
		ds.xs[i], ds.ys[i] = o.Loc.X, o.Loc.Y
		ds.cats[i] = o.Category
		if ds.attrDim > 0 {
			// Repoint the object's attribute vector into the flat matrix:
			// one contiguous allocation for the whole dataset, and Attr(i)
			// stays aliased with Object(i).Attr.
			row := ds.attrFlat[i*ds.attrDim : (i+1)*ds.attrDim : (i+1)*ds.attrDim]
			copy(row, o.Attr)
			o.Attr = row
		}
		var sq float64
		for _, a := range o.Attr {
			sq += a * a
		}
		if math.IsInf(sq, 1) {
			// Cosines against it would be 0 or NaN, not the true value.
			return nil, fmt.Errorf("dataset: object %d's attribute vector is too large: its squared norm overflows", o.ID)
		}
		ds.attrNorms[i] = math.Sqrt(sq)
	}
	return ds, nil
}

// ErrEmpty is returned by operations that need at least one object.
var ErrEmpty = errors.New("dataset: empty dataset")

// Len returns the number of objects.
func (d *Dataset) Len() int { return len(d.objects) }

// AttrDim returns the attribute vector length shared by all objects
// (0 for an empty dataset).
func (d *Dataset) AttrDim() int { return d.attrDim }

// Object returns the object at position i (not by ID).
func (d *Dataset) Object(i int) *Object { return &d.objects[i] }

// Loc returns the location of the object at position i, read from the
// structure-of-arrays coordinate slices (no Object struct load).
func (d *Dataset) Loc(i int) geo.Point { return geo.Point{X: d.xs[i], Y: d.ys[i]} }

// Coords returns the parallel coordinate slices, aligned with object
// positions. Callers must not modify them; they feed the position-indexed
// distance kernels (geo.DistVectorAt).
func (d *Dataset) Coords() (xs, ys []float64) { return d.xs, d.ys }

// Category returns the category of the object at position i from the flat
// category slice — the hot-path form of Object(i).Category.
func (d *Dataset) Category(i int) CategoryID { return d.cats[i] }

// Attr returns the attribute vector of the object at position i as a row
// of the flat attribute matrix. Callers must not modify it.
func (d *Dataset) Attr(i int) []float64 {
	return d.attrFlat[i*d.attrDim : (i+1)*d.attrDim : (i+1)*d.attrDim]
}

// AttrsFlat returns the row-major flat attribute matrix and its row
// stride: object i's vector occupies rows[i*stride:(i+1)*stride]. It is
// the batch-kernel companion of Attr (vectormath.DotsAt reads many rows
// without per-row slicing). Callers must not modify the slice.
func (d *Dataset) AttrsFlat() (rows []float64, stride int) { return d.attrFlat, d.attrDim }

// AttrNorm returns the precomputed Euclidean norm of the attribute vector
// at position i. It equals vectormath.Norm(Object(i).Attr) bit-for-bit
// (same accumulation order), so cosine kernels can divide by it instead of
// re-deriving it per candidate.
func (d *Dataset) AttrNorm(i int) float64 { return d.attrNorms[i] }

// CategoryRank returns the index of position i within
// CategoryObjects(Category(i)) — a dense per-category numbering the
// query-scoped similarity memo uses to key its table by candidate rather
// than by raw position.
func (d *Dataset) CategoryRank(i int) int32 { return d.catRank[i] }

// Objects returns the backing object slice. Callers must not modify it.
func (d *Dataset) Objects() []Object { return d.objects }

// Bounds returns the minimal bounding rectangle of all object locations.
func (d *Dataset) Bounds() geo.Rect { return d.bounds }

// NumCategories returns the number of interned categories.
func (d *Dataset) NumCategories() int { return len(d.categories) }

// CategoryName returns the name for id, or "" if out of range.
func (d *Dataset) CategoryName(id CategoryID) string {
	if id < 0 || int(id) >= len(d.categories) {
		return ""
	}
	return d.categories[id]
}

// CategoryByName returns the ID for name.
func (d *Dataset) CategoryByName(name string) (CategoryID, bool) {
	id, ok := d.catIndex[name]
	return id, ok
}

// CategoryObjects returns the positions of all objects in category id,
// in insertion order. Callers must not modify the slice.
func (d *Dataset) CategoryObjects(id CategoryID) []int32 {
	if id < 0 || int(id) >= len(d.byCategory) {
		return nil
	}
	return d.byCategory[id]
}

// CategorySizes returns a copy of per-category object counts.
func (d *Dataset) CategorySizes() []int {
	out := make([]int, len(d.byCategory))
	for i, s := range d.byCategory {
		out[i] = len(s)
	}
	return out
}

// Sample returns a new Dataset containing the first n objects in a
// deterministic shuffled order derived from seed. It is how the evaluation
// harness derives the paper's "sampled datasets" of growing size from one
// master dataset; using a fixed seed makes smaller samples prefixes of
// larger ones, mirroring the paper's nested sampling.
func (d *Dataset) Sample(n int, seed int64) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: sample size %d must be positive", n)
	}
	if n > len(d.objects) {
		return nil, fmt.Errorf("dataset: sample size %d exceeds dataset size %d", n, len(d.objects))
	}
	perm := make([]int32, len(d.objects))
	for i := range perm {
		perm[i] = int32(i)
	}
	rng := splitMix64(uint64(seed))
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	b := &Builder{}
	for _, name := range d.categories {
		b.Category(name)
	}
	idxs := perm[:n]
	sorted := make([]int32, n)
	copy(sorted, idxs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, i := range sorted {
		b.Add(d.objects[i])
	}
	return b.Build()
}

// splitMix64 is a tiny deterministic PRNG so Sample does not depend on
// math/rand's global state or version-specific stream.
type splitMix64 uint64

func (s *splitMix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
