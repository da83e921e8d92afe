package simil

import (
	"math"
	"reflect"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// planOf is everything a search reads of a Context: the example's
// vectors, the memo over every category object of every dimension, and
// the plan's subspaces and bounds.
type planOf struct {
	X, XNormed, SuffixSq []float64
	Norm                 float64
	Active               []bool
	GraphDiam, Pairs     int
	Misses               int64
	Sims                 [][]uint64
	Work                 []*partition.Subspace
	Bounds               []float64
}

func readPlan(t *testing.T, c *Context, ix *partition.Index) planOf {
	t.Helper()
	p := planOf{X: c.X, XNormed: c.XNormed, SuffixSq: c.SuffixSq, Norm: c.Norm, Active: c.Active,
		GraphDiam: c.GraphDiam, Pairs: c.Pairs}
	work, bounds, err := c.Plan(ix, PlanSpec{Radius: c.PartitionRadius(), Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Work, p.Bounds = append(p.Work, work...), append(p.Bounds, bounds...)
	p.Misses = c.PrepareMemoShared()
	for d := 0; d < c.M; d++ {
		var sims []uint64
		for _, pos := range c.DS.CategoryObjects(c.Ex.Categories[d]) {
			sims = append(sims, math.Float64bits(c.AttrSim(d, pos)))
		}
		p.Sims = append(p.Sims, sims)
	}
	p.X, p.XNormed, p.SuffixSq = append([]float64(nil), p.X...), append([]float64(nil), p.XNormed...), append([]float64(nil), p.SuffixSq...)
	p.Active = append([]bool(nil), p.Active...)
	return p
}

// reuseQueries are testutil.ReuseQueries' queries and, last, the
// size-4 one with a skipped pair, so the mask is reused too.
func reuseQueries(t *testing.T) (*dataset.Dataset, *partition.Index, []*query.Query) {
	ds, qs := testutil.ReuseQueries()
	skip := *qs[3]
	skip.Example.SkipPairs = [][2]int{{0, 3}}
	if err := skip.Validate(ds); err != nil {
		t.Fatal(err)
	}
	return ds, partition.NewIndex(ds), append(qs, &skip)
}

// TestReusedContextMatchesNew: a Context NewContext takes from the pool
// reads, plans and bounds exactly as a new one: its vectors, mask, memo
// (a pinned dimension's NaN entries included) and bound tables are all
// rewritten, whatever the earlier query's tuple size, pins or mask.
func TestReusedContextMatchesNew(t *testing.T) {
	ds, ix, qs := reuseQueries(t)
	want := make([]planOf, len(qs))
	for i, q := range qs {
		testutil.EmptyPools()
		want[i] = readPlan(t, NewContext(ds, q), ix)
	}
	for round := 0; round < 2; round++ {
		for i, q := range qs {
			c := NewContext(ds, q)
			if got := readPlan(t, c, ix); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("round %d query %d: a reused context reads %+v, a new one %+v", round, i, got, want[i])
			}
			c.Release()
		}
	}
}

// TestReleaseDropsTheQuery: a released Context keeps its tables and
// nothing of its query: no dataset, example, metric, mask or memo view,
// and no subspace pointer anywhere in the plan's arrays.
func TestReleaseDropsTheQuery(t *testing.T) {
	ds, ix, qs := reuseQueries(t)
	for _, q := range qs {
		c := NewContext(ds, q)
		readPlan(t, c, ix)
		c.Release()
		v := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name != "bufs" && !v.Field(i).IsZero() {
				t.Errorf("released context keeps %s", name)
			}
		}
		for _, arr := range [][]*partition.Subspace{c.bufs.work, c.bufs.kept} {
			for _, ss := range arr[:cap(arr)] {
				if ss != nil {
					t.Fatalf("released context keeps a subspace of its plan")
				}
			}
		}
	}
}
