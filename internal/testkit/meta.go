package testkit

import (
	"context"
	"fmt"
	"math"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
)

// MetaTol is the similarity tolerance of the metamorphic checks. Unlike
// the differential comparisons (same kernels, bit-identical), transformed
// coordinates genuinely re-derive every distance, so a few ulps of float
// drift are expected.
const MetaTol = 1e-9

// Transform is a similarity transform of the plane: rotate by Angle
// (radians), scale uniformly by Scale, then translate by (DX, DY). The
// paper's SIMs is a cosine over distance vectors, so it is invariant under
// any such transform applied to both the dataset and the example — and so
// is the β-norm ratio.
type Transform struct {
	Angle  float64
	Scale  float64
	DX, DY float64
}

// Point applies the transform.
func (tf Transform) Point(p geo.Point) geo.Point {
	s, c := math.Sincos(tf.Angle)
	x := p.X*c - p.Y*s
	y := p.X*s + p.Y*c
	return geo.Point{X: x*tf.Scale + tf.DX, Y: y*tf.Scale + tf.DY}
}

// TransformCase applies tf to every dataset object location and every
// example location, returning a rebuilt dataset and a cloned query.
// Categories, attributes, pins and parameters are unchanged; object
// positions are preserved, so result tuples are directly comparable.
func TransformCase(c *Case, tf Transform) (*dataset.Dataset, *query.Query, error) {
	b := &dataset.Builder{}
	for cat := 0; cat < c.DS.NumCategories(); cat++ {
		b.Category(c.DS.CategoryName(dataset.CategoryID(cat)))
	}
	for i := 0; i < c.DS.Len(); i++ {
		o := c.DS.Object(i)
		b.Add(dataset.Object{ID: o.ID, Loc: tf.Point(o.Loc), Category: o.Category, Attr: o.Attr, Name: o.Name})
	}
	tds, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	tq := CloneQuery(c.Q)
	for d := range tq.Example.Locations {
		tq.Example.Locations[d] = tf.Point(tq.Example.Locations[d])
	}
	if err := tq.Validate(tds); err != nil {
		return nil, nil, err
	}
	return tds, tq, nil
}

// CheckTransformInvariance asserts the paper's core model property: the
// result similarities are invariant under a similarity transform of the
// whole scene, and HSP stays brute-exact on the transformed scene. Tuple
// identities are compared only through the score series — an exact tie in
// the original scene can split by a few ulps after transforming, which
// legitimately reorders tied tuples.
func CheckTransformInvariance(ctx context.Context, c *Case, tf Transform) []Mismatch {
	name := fmt.Sprintf("meta-transform(angle=%g,scale=%g)", tf.Angle, tf.Scale)
	base := brute.Search(c.DS, c.Q)
	tds, tq, err := TransformCase(c, tf)
	if err != nil {
		return []Mismatch{{Case: c, Algo: name, Kind: "setup", Detail: err.Error()}}
	}
	tbase := brute.Search(tds, tq)
	var out []Mismatch
	if len(base) != len(tbase) {
		return []Mismatch{{Case: c, Algo: name, Kind: "count",
			Detail: fmt.Sprintf("original has %d results, transformed %d", len(base), len(tbase))}}
	}
	for i := range base {
		if math.Abs(base[i].Sim-tbase[i].Sim) > MetaTol {
			out = append(out, Mismatch{Case: c, Algo: name, Kind: "score",
				Detail: fmt.Sprintf("rank %d: original sim %.17g, transformed %.17g", i, base[i].Sim, tbase[i].Sim)})
		}
	}
	// The exact pipeline must also survive the transformed geometry.
	got, err := hsp.Search(ctx, tds, partition.NewIndex(tds), tq, hsp.Options{})
	if err != nil {
		return append(out, Mismatch{Case: c, Algo: name, Kind: "hsp-error", Detail: err.Error()})
	}
	for _, m := range CompareExact(c, name+"/hsp", tbase, got) {
		out = append(out, m)
	}
	return out
}

// CheckPermutationConsistency asserts distance-vector permutation
// consistency: reordering the example dimensions by perm (and remapping
// pins and skip pairs accordingly) must produce the same similarity
// series, and every returned tuple, mapped back to the original dimension
// order, must score identically under the original query. perm[d] names
// the original dimension that becomes dimension d.
func CheckPermutationConsistency(c *Case, perm []int) []Mismatch {
	const name = "meta-permutation"
	m := c.Q.Example.M()
	if len(perm) != m {
		return []Mismatch{{Case: c, Algo: name, Kind: "setup",
			Detail: fmt.Sprintf("perm has %d entries for tuple size %d", len(perm), m)}}
	}
	inv := make([]int, m)
	for d, od := range perm {
		inv[od] = d
	}
	pq := CloneQuery(c.Q)
	ex, oex := &pq.Example, &c.Q.Example
	for d := 0; d < m; d++ {
		ex.Categories[d] = oex.Categories[perm[d]]
		ex.Locations[d] = oex.Locations[perm[d]]
		ex.Attrs[d] = oex.Attrs[perm[d]]
	}
	for i, f := range oex.Fixed {
		ex.Fixed[i] = query.FixedPoint{Dim: inv[f.Dim], Obj: f.Obj}
	}
	for i, sp := range oex.SkipPairs {
		ex.SkipPairs[i] = [2]int{inv[sp[0]], inv[sp[1]]}
	}
	if err := pq.Validate(c.DS); err != nil {
		return []Mismatch{{Case: c, Algo: name, Kind: "setup", Detail: err.Error()}}
	}
	base := brute.Search(c.DS, c.Q)
	got := brute.Search(c.DS, pq)
	if len(base) != len(got) {
		return []Mismatch{{Case: c, Algo: name, Kind: "count",
			Detail: fmt.Sprintf("original has %d results, permuted %d", len(base), len(got))}}
	}
	var out []Mismatch
	sctx := simil.NewContext(c.DS, c.Q)
	mapped := make([]int32, m)
	for i := range base {
		if math.Abs(base[i].Sim-got[i].Sim) > MetaTol {
			out = append(out, Mismatch{Case: c, Algo: name, Kind: "score",
				Detail: fmt.Sprintf("rank %d: original sim %.17g, permuted %.17g", i, base[i].Sim, got[i].Sim)})
			continue
		}
		// The permuted tuple, mapped back to original dimension order,
		// must be feasible and score the same under the original query.
		for d := 0; d < m; d++ {
			mapped[perm[d]] = got[i].Tuple[d]
		}
		sim, ok := sctx.SimOfPositions(mapped)
		if !ok || math.Abs(sim-got[i].Sim) > MetaTol {
			out = append(out, Mismatch{Case: c, Algo: name, Kind: "tuple",
				Detail: fmt.Sprintf("rank %d: permuted tuple %v maps to %v which scores (%.17g, ok=%v) under the original query, reported %.17g",
					i, got[i].Tuple, mapped, sim, ok, got[i].Sim)})
		}
	}
	return out
}

// CheckKMonotonic asserts monotonicity in k: with the deterministic total
// order (similarity desc, tuple key asc), the top-k results must be an
// exact prefix of the top-k2 results for any k2 > k.
func CheckKMonotonic(ctx context.Context, c *Case, k2 int) []Mismatch {
	const name = "meta-k-monotonic"
	if k2 <= c.Q.Params.K {
		return []Mismatch{{Case: c, Algo: name, Kind: "setup",
			Detail: fmt.Sprintf("k2=%d must exceed k=%d", k2, c.Q.Params.K)}}
	}
	small := brute.Search(c.DS, c.Q)
	bigQ := CloneQuery(c.Q)
	bigQ.Params.K = k2
	big := brute.Search(c.DS, bigQ)
	if len(big) < len(small) {
		return []Mismatch{{Case: c, Algo: name, Kind: "count",
			Detail: fmt.Sprintf("k=%d returned %d results but k2=%d returned %d", c.Q.Params.K, len(small), k2, len(big))}}
	}
	var out []Mismatch
	for i := range small {
		// Identical computation on identical data: the prefix must match
		// bit-for-bit, so compare exactly (via Float64bits).
		if math.Float64bits(small[i].Sim) != math.Float64bits(big[i].Sim) || !tuplesEqual(small[i].Tuple, big[i].Tuple) {
			out = append(out, Mismatch{Case: c, Algo: name, Kind: "prefix",
				Detail: fmt.Sprintf("rank %d: top-%d has (%v, %.17g), top-%d has (%v, %.17g)",
					i, c.Q.Params.K, small[i].Tuple, small[i].Sim, k2, big[i].Tuple, big[i].Sim)})
		}
	}
	// HSP must satisfy the same prefix property.
	ix := partition.NewIndex(c.DS)
	hs, err := hsp.Search(ctx, c.DS, ix, c.Q, hsp.Options{})
	if err != nil {
		return append(out, Mismatch{Case: c, Algo: name, Kind: "hsp-error", Detail: err.Error()})
	}
	hb, err := hsp.Search(ctx, c.DS, ix, bigQ, hsp.Options{})
	if err != nil {
		return append(out, Mismatch{Case: c, Algo: name, Kind: "hsp-error", Detail: err.Error()})
	}
	for i := range hs {
		if i >= len(hb) || math.Float64bits(hs[i].Sim) != math.Float64bits(hb[i].Sim) || !tuplesEqual(hs[i].Tuple, hb[i].Tuple) {
			out = append(out, Mismatch{Case: c, Algo: name, Kind: "hsp-prefix",
				Detail: fmt.Sprintf("rank %d: HSP top-%d is not a prefix of top-%d", i, c.Q.Params.K, k2)})
			break
		}
	}
	return out
}

// CheckAlphaEndpoints asserts the α-interpolation endpoints: at α = 0 the
// similarity reduces to the mean attribute cosine (pure attribute
// ranking), at α = 1 to the spatial cosine (pure spatial ranking) — and
// HSP stays brute-exact at both extremes, where one of its two bound
// families goes vacuous.
//
// α = 0 is not expressible through Params.Normalize (a zero Alpha selects
// the paper default, by the documented zero-value contract), so the check
// validates the query first and then overrides Params.Alpha — exactly what
// the algorithms see, since they never re-normalize a validated query.
func CheckAlphaEndpoints(ctx context.Context, c *Case) []Mismatch {
	var out []Mismatch
	ix := partition.NewIndex(c.DS)
	for _, alpha := range []float64{0, 1} {
		name := fmt.Sprintf("meta-alpha-%g", alpha)
		q := CloneQuery(c.Q)
		if err := q.Validate(c.DS); err != nil {
			return append(out, Mismatch{Case: c, Algo: name, Kind: "setup", Detail: err.Error()})
		}
		q.Params.Alpha = alpha
		want := brute.Search(c.DS, q)
		sctx := simil.NewContext(c.DS, q)
		for i, e := range want {
			var pure float64
			if alpha == 0 {
				var sum float64
				for d, pos := range e.Tuple {
					sum += sctx.AttrSim(d, pos)
				}
				pure = sum / float64(len(e.Tuple))
			} else {
				pure = sctx.SpatialSim(sctx.DistVectorOfPositions(e.Tuple, nil))
			}
			if math.Abs(pure-e.Sim) > MetaTol {
				out = append(out, Mismatch{Case: c, Algo: name, Kind: "endpoint",
					Detail: fmt.Sprintf("rank %d: sim %.17g != pure component %.17g", i, e.Sim, pure)})
			}
		}
		got, err := hsp.Search(ctx, c.DS, ix, q, hsp.Options{})
		if err != nil {
			return append(out, Mismatch{Case: c, Algo: name, Kind: "hsp-error", Detail: err.Error()})
		}
		for _, m := range CompareExact(c, name+"/hsp", want, got) {
			out = append(out, m)
		}
	}
	return out
}

// CheckFixedPointPostFilter asserts that a CSEQ-FP query agrees with the
// post-filtered full CSEQ ranking: rank every feasible tuple of the
// unpinned query, keep those honouring the pins, truncate to k — the
// result must equal the CSEQ-FP search tuple-for-tuple. The full ranking
// needs an unbounded k, which Normalize caps, so (as in
// CheckAlphaEndpoints) the clone is validated first and K overridden
// after.
func CheckFixedPointPostFilter(c *Case) []Mismatch {
	const name = "meta-fixed-point"
	if c.Q.Variant != query.CSEQFP {
		return []Mismatch{{Case: c, Algo: name, Kind: "setup", Detail: "case is not CSEQ-FP"}}
	}
	pinned := brute.Search(c.DS, c.Q)
	full := CloneQuery(c.Q)
	full.Variant = query.CSEQ
	full.Example.Fixed = nil
	if err := full.Validate(c.DS); err != nil {
		return []Mismatch{{Case: c, Algo: name, Kind: "setup", Detail: err.Error()}}
	}
	full.Params.K = math.MaxInt32 // rank everything; see doc comment
	ranking := brute.Search(c.DS, full)
	var filtered []int
	for i, e := range ranking {
		ok := true
		for _, f := range c.Q.Example.Fixed {
			if e.Tuple[f.Dim] != f.Obj {
				ok = false
				break
			}
		}
		if ok {
			filtered = append(filtered, i)
			if len(filtered) == c.Q.Params.K {
				break
			}
		}
	}
	if len(filtered) != len(pinned) {
		return []Mismatch{{Case: c, Algo: name, Kind: "count",
			Detail: fmt.Sprintf("post-filter keeps %d tuples, CSEQ-FP returned %d", len(filtered), len(pinned))}}
	}
	var out []Mismatch
	for i, ri := range filtered {
		// Same kernels, same data: exact (bit-level) agreement is the contract.
		if math.Float64bits(ranking[ri].Sim) != math.Float64bits(pinned[i].Sim) || !tuplesEqual(ranking[ri].Tuple, pinned[i].Tuple) {
			out = append(out, Mismatch{Case: c, Algo: name, Kind: "tuple",
				Detail: fmt.Sprintf("rank %d: post-filtered (%v, %.17g) != CSEQ-FP (%v, %.17g)",
					i, ranking[ri].Tuple, ranking[ri].Sim, pinned[i].Tuple, pinned[i].Sim)})
		}
	}
	return out
}
