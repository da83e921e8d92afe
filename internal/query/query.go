// Package query defines the example-based query model shared by every
// algorithm: the example tuple, the problem variants (SEQ, CSEQ, CSEQ-FP)
// and the tuning parameters of the paper's evaluation (k, alpha, beta, the
// grid resolution D and the sampling budget xi).
package query

import (
	"errors"
	"fmt"
	"math"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
)

// Variant selects the problem being answered.
type Variant int

const (
	// CSEQ is the norm-constrained spatial exemplar query (Definition 1).
	CSEQ Variant = iota
	// SEQ is the unconstrained original problem (beta treated as +Inf).
	SEQ
	// CSEQFP is CSEQ with fixed points: positions listed in
	// Example.Fixed must appear verbatim in every result tuple.
	CSEQFP
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case CSEQ:
		return "CSEQ"
	case SEQ:
		return "SEQ"
	case CSEQFP:
		return "CSEQ-FP"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant converts a variant name (as produced by Variant.String and
// stored in flight captures) back to a Variant.
func ParseVariant(s string) (Variant, error) {
	switch s {
	case "CSEQ", "cseq":
		return CSEQ, nil
	case "SEQ", "seq":
		return SEQ, nil
	case "CSEQ-FP", "cseq-fp":
		return CSEQFP, nil
	default:
		return CSEQ, fmt.Errorf("query: unknown variant %q", s)
	}
}

// Metric measures the distance between two locations. The default (a nil
// Metric) is the Euclidean distance; road networks provide travel
// distances (paper Section II-A: "applying other metrics such as
// traveling distances is possible").
type Metric interface {
	// Dist returns the distance between a and b. It must be symmetric
	// and non-negative.
	Dist(a, b geo.Point) float64
	// DominatesEuclidean reports whether Dist(a,b) >= |a-b| for all a, b.
	// HSP and LORA rely on Euclidean containment for their space
	// partitioning; a metric that does not dominate the Euclidean
	// distance forces them to search the whole space as one subspace
	// (still correct, just slower). Travel distances dominate: no route
	// is shorter than the straight line.
	DominatesEuclidean() bool
}

// Example is the user-provided example tuple t*. Each dimension carries the
// category the result object must have, the example location (for the
// distance vector) and the example attribute vector (for SIMa).
//
// The example objects themselves need not exist in the dataset — a user may
// click arbitrary map locations — which is why Example stores categories,
// locations and attributes rather than dataset positions.
type Example struct {
	Categories []dataset.CategoryID
	Locations  []geo.Point
	Attrs      [][]float64
	// Fixed lists dimensions pinned to concrete dataset objects
	// (CSEQ-FP). Nil for plain SEQ/CSEQ.
	Fixed []FixedPoint
	// SkipPairs lists dimension pairs whose distance the user does not
	// care about (the paper's "distance pairs not interested" variant):
	// those entries are dropped from both the example's and the
	// candidates' distance vectors before the spatial similarity and the
	// beta-norm constraint are computed. For CSEQ (finite beta) the
	// remaining pair graph must stay connected — otherwise no spatial
	// containment bound exists and Validate rejects the query.
	SkipPairs [][2]int
	// Metric overrides the distance function (nil = Euclidean). It
	// applies to both the example's distance vector and every candidate
	// tuple's.
	Metric Metric
}

// Dist measures the distance between two locations under the example's
// metric (Euclidean when Metric is nil).
func (e *Example) Dist(a, b geo.Point) float64 {
	if e.Metric == nil {
		return a.Dist(b)
	}
	return e.Metric.Dist(a, b)
}

// FixedPoint pins example dimension Dim to the dataset object at position
// Obj: result tuples must contain exactly that object at that dimension.
type FixedPoint struct {
	Dim int
	Obj int32
}

// M returns the tuple size m.
func (e *Example) M() int { return len(e.Categories) }

// PairActive reports whether the distance between dimensions i and j
// participates in the similarity model (true unless listed in SkipPairs).
func (e *Example) PairActive(i, j int) bool {
	for _, sp := range e.SkipPairs {
		a, b := sp[0], sp[1]
		if (a == i && b == j) || (a == j && b == i) {
			return false
		}
	}
	return true
}

// PairGraphDiameter returns the diameter (longest shortest path, in hops)
// of the active-pair graph over the example's m dimensions, and whether
// the graph is connected. With no skipped pairs the graph is complete and
// the diameter is 1. The hierarchical partitioning multiplies its radius
// by this diameter: two dimensions k hops apart can be at most
// k*beta*||V_t*|| apart in any norm-feasible tuple.
func (e *Example) PairGraphDiameter() (diam int, connected bool) {
	m := e.M()
	if m < 2 {
		return 0, true
	}
	const inf = math.MaxInt32
	dist := make([][]int, m)
	for i := range dist {
		dist[i] = make([]int, m)
		for j := range dist[i] {
			switch {
			case i == j:
				dist[i][j] = 0
			case e.PairActive(i, j):
				dist[i][j] = 1
			default:
				dist[i][j] = inf
			}
		}
	}
	for k := 0; k < m; k++ {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if dist[i][k] != inf && dist[k][j] != inf && dist[i][k]+dist[k][j] < dist[i][j] {
					dist[i][j] = dist[i][k] + dist[k][j]
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if dist[i][j] == inf {
				return 0, false
			}
			if dist[i][j] > diam {
				diam = dist[i][j]
			}
		}
	}
	return diam, true
}

// DistVector returns the example's distance vector V_t* in the library's
// prefix-friendly pair order, with skipped pairs omitted, under the
// example's metric.
func (e *Example) DistVector() []float64 {
	if len(e.SkipPairs) == 0 && e.Metric == nil {
		return geo.DistVector(e.Locations, nil)
	}
	var out []float64
	for j := 1; j < len(e.Locations); j++ {
		for i := 0; i < j; i++ {
			if e.PairActive(i, j) {
				out = append(out, e.Dist(e.Locations[i], e.Locations[j]))
			}
		}
	}
	return out
}

// Norm returns ||V_t*|| over the active pairs under the example's metric.
func (e *Example) Norm() float64 {
	if len(e.SkipPairs) == 0 && e.Metric == nil {
		return geo.TupleNorm(e.Locations)
	}
	return geo.Norm(e.DistVector())
}

// FixedDim returns the pinned object for dimension d, or -1.
func (e *Example) FixedDim(d int) int32 {
	for _, f := range e.Fixed {
		if f.Dim == d {
			return f.Obj
		}
	}
	return -1
}

// Validate checks the example against ds.
func (e *Example) Validate(ds *dataset.Dataset) error {
	m := e.M()
	if m < 2 || m > MaxM {
		return fmt.Errorf("query: example must have between 2 and %d objects, got %d", MaxM, m)
	}
	if len(e.Locations) != m || len(e.Attrs) != m {
		return fmt.Errorf("query: example dimensions disagree: %d categories, %d locations, %d attrs",
			m, len(e.Locations), len(e.Attrs))
	}
	for i, c := range e.Categories {
		if c < 0 || int(c) >= ds.NumCategories() {
			return fmt.Errorf("query: dimension %d has unknown category %d", i, c)
		}
	}
	for i, a := range e.Attrs {
		if len(a) != ds.AttrDim() {
			return fmt.Errorf("query: dimension %d has %d attributes, dataset wants %d", i, len(a), ds.AttrDim())
		}
		var sq float64
		for _, v := range a {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("query: dimension %d has invalid attribute %g", i, v)
			}
			sq += v * v
		}
		if math.IsInf(sq, 1) {
			// Cosines against it would be 0 or NaN, not the true value.
			return fmt.Errorf("query: dimension %d's attribute vector is too large: its squared norm overflows", i)
		}
	}
	for _, sp := range e.SkipPairs {
		if sp[0] < 0 || sp[0] >= m || sp[1] < 0 || sp[1] >= m || sp[0] == sp[1] {
			return fmt.Errorf("query: invalid skipped pair (%d,%d) for tuple size %d", sp[0], sp[1], m)
		}
	}
	if active := geo.PairCount(m) - countSkipped(e, m); active == 0 {
		return errors.New("query: all distance pairs skipped; no spatial similarity remains")
	}
	seen := make(map[int]bool, len(e.Fixed))
	for _, f := range e.Fixed {
		if f.Dim < 0 || f.Dim >= m {
			return fmt.Errorf("query: fixed point dimension %d out of range [0,%d)", f.Dim, m)
		}
		if seen[f.Dim] {
			return fmt.Errorf("query: dimension %d pinned twice", f.Dim)
		}
		seen[f.Dim] = true
		if f.Obj < 0 || int(f.Obj) >= ds.Len() {
			return fmt.Errorf("query: fixed point object %d out of range", f.Obj)
		}
		if ds.Object(int(f.Obj)).Category != e.Categories[f.Dim] {
			return fmt.Errorf("query: fixed object %d category %d does not match dimension %d category %d",
				f.Obj, ds.Object(int(f.Obj)).Category, f.Dim, e.Categories[f.Dim])
		}
	}
	return nil
}

func countSkipped(e *Example, m int) int {
	n := 0
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if !e.PairActive(i, j) {
				n++
			}
		}
	}
	return n
}

// Params are the tuning parameters. Zero values select the paper defaults
// via Normalize.
type Params struct {
	// K is the number of results (paper default 5).
	K int
	// Alpha weighs spatial vs attribute similarity (paper default 0.5).
	Alpha float64
	// Beta is the norm constraint (paper default 1.5); +Inf or a SEQ
	// variant disables it.
	Beta float64
	// GridD is LORA's cells-per-side resolution D (paper sweeps [1,10];
	// default 5).
	GridD int
	// Xi is LORA's per-cell per-dimension sampling budget (paper
	// observes xi = 10 already accurate; default 10). Xi <= 0 disables
	// sampling (keep all points).
	Xi int
}

// DefaultParams returns the paper's default setting.
func DefaultParams() Params {
	return Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 5, Xi: 10}
}

// Input ceilings, enforced by Normalize and Example.Validate. They exist so
// untrusted inputs (the HTTP API, fuzzers) cannot request absurd
// allocations: LORA materialises GridD^2 cell buckets per subspace, the
// top-k heap keeps K tuples, and a query's distance vectors hold
// m(m-1)/2 pairs. Every limit sits far above anything the paper sweeps
// (K <= 50, GridD in [1,10], m <= 5).
const (
	// MaxK is the largest accepted result count.
	MaxK = 10000
	// MaxGridD is the largest accepted cells-per-side grid resolution.
	MaxGridD = 1024
	// MaxM is the largest accepted example size: 120 distance pairs.
	MaxM = 16
)

// Normalize fills zero fields with defaults and validates ranges.
func (p Params) Normalize() (Params, error) {
	d := DefaultParams()
	if p.K == 0 {
		p.K = d.K
	}
	if p.Alpha == 0 {
		p.Alpha = d.Alpha
	}
	if p.Beta == 0 {
		p.Beta = d.Beta
	}
	if p.GridD == 0 {
		p.GridD = d.GridD
	}
	if p.Xi == 0 {
		p.Xi = d.Xi
	}
	if p.K < 1 || p.K > MaxK {
		return p, fmt.Errorf("query: k must be in [1,%d], got %d", MaxK, p.K)
	}
	if p.Alpha < 0 || p.Alpha > 1 || math.IsNaN(p.Alpha) {
		return p, fmt.Errorf("query: alpha must be in [0,1], got %g", p.Alpha)
	}
	if !(p.Beta >= 1) { // also rejects NaN
		return p, fmt.Errorf("query: beta must be >= 1, got %g", p.Beta)
	}
	if p.GridD < 1 || p.GridD > MaxGridD {
		return p, fmt.Errorf("query: grid resolution D must be in [1,%d], got %d", MaxGridD, p.GridD)
	}
	return p, nil
}

// GridDForEpsilon returns the smallest grid resolution D that achieves the
// Theorem 3 guarantee SIM(t_i) <= (1+eps)*SIM(t̂_i) + alpha*eps for an
// ac-subspace of side length `side`, example norm `norm`, tuple size m and
// norm constraint beta: it solves d <= eps*||V_t*|| / (2*beta*sqrt(m^2-m))
// for the cell side d = side/D.
func GridDForEpsilon(eps, side, norm, beta float64, m int) (int, error) {
	if eps <= 0 || side <= 0 || norm <= 0 || beta < 1 || m < 2 {
		return 0, errors.New("query: GridDForEpsilon needs eps, side, norm > 0, beta >= 1, m >= 2")
	}
	maxCell := eps * norm / (2 * beta * math.Sqrt(float64(m*m-m)))
	d := int(math.Ceil(side / maxCell))
	if d < 1 {
		d = 1
	}
	return d, nil
}

// Query bundles a variant, an example and parameters.
type Query struct {
	Variant Variant
	Example Example
	Params  Params
}

// EffectiveBeta returns the beta the algorithms should enforce: +Inf for
// SEQ, the configured beta otherwise.
func (q *Query) EffectiveBeta() float64 {
	if q.Variant == SEQ {
		return math.Inf(1)
	}
	return q.Params.Beta
}

// Validate normalizes parameters and checks the example against ds.
func (q *Query) Validate(ds *dataset.Dataset) error {
	p, err := q.Params.Normalize()
	if err != nil {
		return err
	}
	q.Params = p
	if q.Variant == CSEQFP && len(q.Example.Fixed) == 0 {
		return errors.New("query: CSEQ-FP requires at least one fixed point")
	}
	if q.Variant != CSEQFP && len(q.Example.Fixed) > 0 {
		return fmt.Errorf("query: fixed points given but variant is %s", q.Variant)
	}
	if err := q.Example.Validate(ds); err != nil {
		return err
	}
	if len(q.Example.SkipPairs) > 0 && !math.IsInf(q.EffectiveBeta(), 1) {
		if _, connected := q.Example.PairGraphDiameter(); !connected {
			return errors.New("query: skipped pairs disconnect the pair graph; the beta-norm constraint cannot bound the tuple extent (use SEQ or skip fewer pairs)")
		}
	}
	return nil
}
