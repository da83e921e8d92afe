package main

import (
	"fmt"
	"math"
	"slices"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
)

// simTolerance is how far a returned similarity may sit from the
// reference recomputation.
const simTolerance = 1e-9

// feasibleSteps bounds the enumeration that verifies a short answer.
const feasibleSteps = 50_000_000

// checkAnswer verifies one answer to the validated query q:
//   - each tuple has one distinct object per example dimension, of that
//     dimension's category;
//   - its beta-norm ratio lies in [1/beta, beta];
//   - simil.Context.SimOfPositions recomputes its similarity;
//   - tuples are distinct and best-first;
//   - for an exact algorithm, there are k tuples, or exactly as many as
//     are feasible. LORA's sampling may legitimately return fewer.
func checkAnswer(ds *dataset.Dataset, q *query.Query, algo core.Algorithm, tuples []core.ResultTuple) error {
	k := q.Params.K
	if len(tuples) > k {
		return fmt.Errorf("%d tuples for k=%d", len(tuples), k)
	}
	ref := simil.NewContext(ds, q)
	beta := q.EffectiveBeta()
	m := q.Example.M()
	seen := make(map[string]bool, len(tuples))
	for i, t := range tuples {
		if len(t.Positions) != m {
			return fmt.Errorf("tuple %d has %d objects, want %d", i, len(t.Positions), m)
		}
		for d, pos := range t.Positions {
			if pos < 0 || int(pos) >= ds.Len() {
				return fmt.Errorf("tuple %d: position %d out of range", i, pos)
			}
			if ds.Category(int(pos)) != q.Example.Categories[d] {
				return fmt.Errorf("tuple %d: object %d is not of dimension %d's category", i, pos, d)
			}
			if slices.Contains(t.Positions[:d], pos) {
				return fmt.Errorf("tuple %d repeats object %d", i, pos)
			}
		}
		key := fmt.Sprint(t.Positions)
		if seen[key] {
			return fmt.Errorf("tuple %d is returned twice", i)
		}
		seen[key] = true
		ratio := geo.Norm(ref.DistVectorOfPositions(t.Positions, nil)) / ref.Norm
		if !math.IsInf(beta, 1) && (ratio < 1/beta || ratio > beta) {
			return fmt.Errorf("tuple %d: norm ratio %.6f outside [1/%g, %g]", i, ratio, beta, beta)
		}
		sim, ok := ref.SimOfPositions(t.Positions)
		if !ok {
			return fmt.Errorf("tuple %d is infeasible", i)
		}
		if math.Abs(sim-t.Sim) > simTolerance {
			return fmt.Errorf("tuple %d: similarity %.12f, recomputed %.12f", i, t.Sim, sim)
		}
		if i > 0 && t.Sim > tuples[i-1].Sim {
			return fmt.Errorf("tuple %d (sim %.12f) ranks below a worse tuple (%.12f)", i, t.Sim, tuples[i-1].Sim)
		}
	}
	if len(tuples) < k && algo != core.LORA {
		feasible, err := countFeasible(ds, q, ref, k)
		if err != nil {
			return fmt.Errorf("%d of k=%d tuples: %w", len(tuples), k, err)
		}
		if feasible != len(tuples) {
			return fmt.Errorf("%d tuples returned, %d feasible (k=%d)", len(tuples), feasible, k)
		}
	}
	return nil
}

// countFeasible counts q's feasible tuples by enumeration, up to k.
// Every pair of a feasible tuple lies within the partition radius, so
// the objects of the later dimensions come from a grid of that cell
// size around the first object. The enumeration gives up after
// feasibleSteps candidates.
func countFeasible(ds *dataset.Dataset, q *query.Query, ref *simil.Context, k int) (int, error) {
	m := q.Example.M()
	r := ref.PartitionRadius()
	if math.IsInf(r, 1) || r <= 0 {
		return 0, fmt.Errorf("no finite radius bounds the tuples")
	}
	cell := func(p geo.Point) [2]int64 {
		return [2]int64{int64(math.Floor(p.X / r)), int64(math.Floor(p.Y / r))}
	}
	grids := make([]map[[2]int64][]int32, m)
	for d := 1; d < m; d++ {
		grids[d] = map[[2]int64][]int32{}
		for _, pos := range ds.CategoryObjects(q.Example.Categories[d]) {
			c := cell(ds.Loc(int(pos)))
			grids[d][c] = append(grids[d][c], pos)
		}
	}
	tuple := make([]int32, m)
	count, steps := 0, 0
	var walk func(d int) bool
	walk = func(d int) bool {
		if d == m {
			if _, ok := ref.SimOfPositions(tuple); ok {
				count++
			}
			return count < k
		}
		c0 := cell(ds.Loc(int(tuple[0])))
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, pos := range grids[d][[2]int64{c0[0] + dx, c0[1] + dy}] {
					if steps++; steps > feasibleSteps {
						return false
					}
					near := true
					for _, prev := range tuple[:d] {
						if ds.Loc(int(prev)).Dist(ds.Loc(int(pos))) > r {
							near = false
							break
						}
					}
					if !near {
						continue
					}
					tuple[d] = pos
					if !walk(d + 1) {
						return false
					}
				}
			}
		}
		return true
	}
	for _, pos := range ds.CategoryObjects(q.Example.Categories[0]) {
		tuple[0] = pos
		if !walk(1) {
			break
		}
	}
	if steps > feasibleSteps {
		return 0, fmt.Errorf("short answer not verified within %d candidates", feasibleSteps)
	}
	return count, nil
}
