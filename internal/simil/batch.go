// Blocked batch kernels for attribute similarity and distance vectors.
// The scalar paths (AttrSim, DistVectorOfPositions) process one
// candidate per call — a memo branch plus a dot product each. The batch
// forms below process cache-sized blocks of candidates in tight loops
// over the dataset's contiguous SoA rows, with the memo consulted per
// candidate but the uncached cosines computed by one blocked
// vectormath.DotsAt sweep. Every kernel is bit-for-bit identical to the
// scalar path it replaces (same accumulation order); the oracle tests in
// batch_test.go pin that down.
package simil

import (
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/vectormath"
)

// batchBlock is the block length of the batched kernels: 256 candidates
// keep the dot-product working set (256 attr rows plus the outputs)
// inside L1/L2 for the attribute dimensionalities this system uses
// while amortising loop overhead.
const batchBlock = 256

// AttrSimBatch writes AttrSim(dim, positions[i]) into dst[i] for every
// position. dst must have len(positions). Results are bit-for-bit
// identical to calling AttrSim in index order:
//
//   - no memo: blocked DotsAt over the flat attribute matrix plus the
//     prenormed cosine — the pure batch fast path;
//   - filled memo (PrepareMemoShared): read-only table lookups, with
//     the direct kernel covering entries the fill left out (dimensions
//     pinned to a fixed object memoise only that object).
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

// CandidatesBatchInto filters positions to dim's category, scores the
// survivors with AttrSimBatch, appends them to dst and sorts the whole
// of dst (SortCandidates: similarity descending, position ascending).
// Pass a length-zero slice — dst[:0] to reuse a backing array.
func (c *Context) CandidatesBatchInto(dst []Cand, dim int, positions []int32, bs *BatchScratch) []Cand {
	cat := c.Ex.Categories[dim]
	bs.pos = bs.pos[:0]
	for _, pos := range positions {
		if c.DS.Category(int(pos)) == cat {
			bs.pos = append(bs.pos, pos)
		}
	}
	dst = c.appendScored(dst, dim, bs)
	SortCandidates(dst)
	return dst
}

// RegionCandidatesInto appends to dst, unsorted, every object of dim's
// category that region contains (partition.Index.Gather), scored with
// AttrSimBatch. A candidate with the largest similarity leads the
// appended run. Sims equal CandidatesBatchInto's over the region's
// points; only the order differs.
func (c *Context) RegionCandidatesInto(dst []Cand, dim int, ix *partition.Index, region geo.Rect, bs *BatchScratch) []Cand {
	bs.pos = ix.Gather(bs.pos[:0], c.Ex.Categories[dim], region)
	base := len(dst)
	dst = c.appendScored(dst, dim, bs)
	for i := base + 1; i < len(dst); i++ {
		if dst[i].Sim > dst[base].Sim {
			dst[base], dst[i] = dst[i], dst[base]
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
