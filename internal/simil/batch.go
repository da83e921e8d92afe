// Blocked batch kernels for attribute similarity and distance vectors.
// The scalar paths (AttrSim, DistVectorOfPositions) process one
// candidate per call — a memo branch plus a dot product each. The batch
// forms below process cache-sized blocks of candidates in tight loops
// over the dataset's contiguous SoA rows, with the memo consulted per
// candidate but the uncached cosines computed by one blocked
// vectormath.DotsAt sweep. Every kernel is bit-for-bit identical to the
// scalar path it replaces (same accumulation order, same memo fill and
// counter sequence); the oracle tests in batch_test.go pin that down.
package simil

import (
	"spatialseq/internal/geo"
	"spatialseq/internal/vectormath"
)

// batchBlock is the block length of the batched kernels: 256 candidates
// keep the dot-product working set (256 attr rows plus the outputs)
// inside L1/L2 for the attribute dimensionalities this system uses
// while amortising loop overhead.
const batchBlock = 256

// AttrSimBatch writes AttrSim(dim, positions[i]) into dst[i] for every
// position. dst must have len(positions). Results, memo fills and memo
// counters are bit-for-bit identical to calling AttrSim in index order:
//
//   - no memo: blocked DotsAt over the flat attribute matrix plus the
//     prenormed cosine — the pure batch fast path;
//   - lazy memo (EnableMemo): falls back to scalar AttrSim per position
//     so the single-goroutine fill order and hit/miss counts are
//     exactly the scalar sequence;
//   - shared memo (PrepareMemoShared): read-only table lookups, with
//     the direct kernel covering entries the eager pass left unfilled
//     (dimensions pinned to a fixed object memoise only that object).
//
//seq:hotpath
func (c *Context) AttrSimBatch(dim int, positions []int32, dst []float64) {
	if len(dst) != len(positions) {
		//lint:ignore panicfree hot-path invariant guard, same discipline as vectormath.Dot
		panic("simil: AttrSimBatch length mismatch")
	}
	if c.memo == nil {
		c.attrSimBatchDirect(dim, positions, dst)
		return
	}
	if !c.memoShared {
		for i, pos := range positions {
			dst[i] = c.AttrSim(dim, pos)
		}
		return
	}
	cat := c.Ex.Categories[dim]
	off := c.memoOff[dim]
	for i, pos := range positions {
		if c.DS.Category(int(pos)) == cat {
			//lint:ignore floatcmp v == v is the canonical NaN-sentinel test (false iff v is NaN), not a value comparison
			if v := c.memo[off+int(c.DS.CategoryRank(int(pos)))]; v == v {
				dst[i] = v
				continue
			}
		}
		dst[i] = c.attrSimDirect(dim, pos)
	}
}

// attrSimBatchDirect is the uncached blocked kernel: per block, one
// DotsAt sweep over the contiguous attribute rows, then the prenormed
// cosine in place. Identical accumulation order to attrSimDirect per
// candidate, so each output matches the scalar call bit-for-bit.
//
//seq:hotpath
func (c *Context) attrSimBatchDirect(dim int, positions []int32, dst []float64) {
	q := c.Ex.Attrs[dim]
	qn := c.exNorms[dim]
	flat, stride := c.DS.AttrsFlat()
	for lo := 0; lo < len(positions); lo += batchBlock {
		hi := lo + batchBlock
		if hi > len(positions) {
			hi = len(positions)
		}
		vectormath.DotsAt(dst[lo:hi], q, flat, stride, positions[lo:hi])
		for i := lo; i < hi; i++ {
			dst[i] = vectormath.CosPrenormed(dst[i], qn, c.DS.AttrNorm(int(positions[i])))
		}
	}
}

// BatchScratch carries the reusable position/similarity buffers of
// CandidatesBatchInto and RegionCandidatesInto so steady-state calls
// allocate nothing.
type BatchScratch struct {
	pos  []int32
	sims []float64
}

// CandidatesBatchInto is the batched form of CandidatesInto: it filters
// positions to dim's category, scores the survivors with AttrSimBatch,
// appends them to dst and sorts. Output is element-for-element
// identical to CandidatesInto (same filter order, same sims, same
// sort), under every memo mode.
func (c *Context) CandidatesBatchInto(dst []Cand, dim int, positions []int32, bs *BatchScratch) []Cand {
	bs.pos = c.appendOfCategory(bs.pos[:0], dim, positions)
	dst = c.appendScored(dst, dim, bs)
	SortCandidates(dst)
	return dst
}

// RegionCandidatesInto appends to dst, unsorted, every object of dim's
// category that region contains, scored with AttrSimBatch. positions
// must hold exactly the dataset points region contains (a subspace's
// CorePoints for its Core, its ACPoints for its AC). The call gathers
// from whichever of positions and the category's object list is
// shorter; both give the same set. A candidate with the largest
// similarity leads the appended run. Sims, memo fills and memo counters
// equal CandidatesBatchInto's over the same positions; only the order
// differs.
func (c *Context) RegionCandidatesInto(dst []Cand, dim int, region geo.Rect, positions []int32, bs *BatchScratch) []Cand {
	bs.pos = bs.pos[:0]
	if objs := c.DS.CategoryObjects(c.Ex.Categories[dim]); len(objs) < len(positions) {
		for _, pos := range objs {
			if region.Contains(c.DS.Loc(int(pos))) {
				bs.pos = append(bs.pos, pos)
			}
		}
	} else {
		bs.pos = c.appendOfCategory(bs.pos, dim, positions)
	}
	base := len(dst)
	dst = c.appendScored(dst, dim, bs)
	for i := base + 1; i < len(dst); i++ {
		if dst[i].Sim > dst[base].Sim {
			dst[base], dst[i] = dst[i], dst[base]
		}
	}
	return dst
}

// appendOfCategory appends the positions of dim's category to dst.
func (c *Context) appendOfCategory(dst []int32, dim int, positions []int32) []int32 {
	cat := c.Ex.Categories[dim]
	for _, pos := range positions {
		if c.DS.Category(int(pos)) == cat {
			dst = append(dst, pos)
		}
	}
	return dst
}

// appendScored scores bs.pos with AttrSimBatch and appends the
// candidates to dst in that order.
func (c *Context) appendScored(dst []Cand, dim int, bs *BatchScratch) []Cand {
	if len(bs.pos) == 0 {
		return dst
	}
	if cap(bs.sims) < len(bs.pos) {
		bs.sims = make([]float64, len(bs.pos))
	}
	sims := bs.sims[:len(bs.pos)]
	c.AttrSimBatch(dim, bs.pos, sims)
	for i, pos := range bs.pos {
		dst = append(dst, Cand{Pos: pos, Sim: sims[i]})
	}
	return dst
}

// DistVectorsOfPositions is the blocked form of DistVectorOfPositions:
// tuples holds rows*m positions (row-major) and the result holds one
// Pairs-length masked distance vector per row, row r at
// dst[r*Pairs:(r+1)*Pairs]. On the common path (no skipped pairs,
// Euclidean metric) it runs one geo.DistVectorsAt sweep over the SoA
// coordinate slices; each row is bit-identical to the scalar call.
// dst is resized as needed and returned.
//
//seq:hotpath
func (c *Context) DistVectorsOfPositions(tuples []int32, m int, dst []float64) []float64 {
	if c.Active == nil && c.Metric == nil {
		xs, ys := c.DS.Coords()
		return geo.DistVectorsAt(xs, ys, tuples, m, dst)
	}
	dst = dst[:0]
	if m <= 0 {
		return dst
	}
	for r := 0; r*m < len(tuples); r++ {
		tuple := tuples[r*m : r*m+m]
		for j := 1; j < m; j++ {
			pj := c.DS.Loc(int(tuple[j]))
			for i := 0; i < j; i++ {
				if c.Active == nil || c.Active[geo.PairIndex(i, j)] {
					//lint:ignore hotpathalloc appends into the caller's reused dst; capacity is amortised after the first block
					dst = append(dst, c.Dist(c.DS.Loc(int(tuple[i])), pj))
				}
			}
		}
	}
	return dst
}
