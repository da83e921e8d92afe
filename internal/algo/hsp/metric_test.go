package hsp

import (
	"context"
	"math/rand"
	"testing"

	"spatialseq/internal/algo/brute"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/roadnet"
	"spatialseq/internal/testutil"
)

// The pluggable-metric variant (travel distances, paper Section II-A):
// exactness must hold when all distances — example and candidates — come
// from a road network instead of the Euclidean plane.

func roadMetric(t *testing.T) query.Metric {
	t.Helper()
	net, err := roadnet.Grid(roadnet.GridConfig{
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100},
		NX:     21, NY: 21,
		DropFrac: 0.1,
		Meander:  0.3,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net.NewMetric(0)
}

func TestRoadMetricExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	metric := roadMetric(t)
	for trial := 0; trial < 4; trial++ {
		ds := testutil.RandDataset(rng, 50, 3, 4, 100)
		ix := partition.NewIndex(ds)
		params := query.Params{K: 4, Alpha: 0.5, Beta: 2.5, GridD: 4, Xi: 10}
		q := testutil.RandQuery(rng, ds, 3, 30, params)
		q.Example.Metric = metric
		if err := q.Validate(ds); err != nil {
			t.Fatal(err)
		}
		want := simsOf(brute.Search(ds, q))
		got, err := Search(context.Background(), ds, ix, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !simsEqual(simsOf(got), want, 1e-9) {
			t.Errorf("trial %d: HSP under road metric %v != brute %v", trial, simsOf(got), want)
		}
	}
}

func TestRoadMetricLORAUpperBoundedByExact(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	metric := roadMetric(t)
	ds := testutil.RandDataset(rng, 80, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 4, Alpha: 0.5, Beta: 2.5, GridD: 4, Xi: -1}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	q.Example.Metric = metric
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	q.Params.Xi = -1
	exact := simsOf(brute.Search(ds, q))
	approx, err := lora.Search(context.Background(), ds, ix, q, lora.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := simsOf(approx)
	for i := range got {
		if i < len(exact) && got[i] > exact[i]+1e-9 {
			t.Errorf("rank %d: LORA %g exceeds exact %g", i, got[i], exact[i])
		}
	}
}

// A metric that does NOT dominate the Euclidean distance must force the
// whole-space fallback but keep results exact.
type halfMetric struct{}

func (halfMetric) Dist(a, b geo.Point) float64 { return a.Dist(b) / 2 }
func (halfMetric) DominatesEuclidean() bool    { return false }

func TestNonDominatingMetricStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	ds := testutil.RandDataset(rng, 60, 3, 4, 100)
	ix := partition.NewIndex(ds)
	params := query.Params{K: 4, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10}
	q := testutil.RandQuery(rng, ds, 3, 30, params)
	q.Example.Metric = halfMetric{}
	if err := q.Validate(ds); err != nil {
		t.Fatal(err)
	}
	want := simsOf(brute.Search(ds, q))
	got, err := Search(context.Background(), ds, ix, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !simsEqual(simsOf(got), want, 1e-9) {
		t.Errorf("HSP under non-dominating metric %v != brute %v", simsOf(got), want)
	}
}
