// Package spatialseq is a from-scratch Go implementation of example-based
// spatial search at scale (Zhang et al., ICDE 2022).
//
// The user provides an *example*: a small tuple of map objects — say an
// apartment, a daycare and a takeaway with particular ratings and relative
// locations — and the engine returns the k object tuples from a POI
// dataset that best match the example's geometry (spatial similarity of
// pairwise-distance vectors) and attributes (cosine similarity of
// attribute vectors), optionally under a beta-norm constraint bounding how
// much larger or smaller a result's footprint may be (the CSEQ problem).
//
// Three algorithms are provided:
//
//   - DFSPrune — the CIKM'17 state-of-the-art baseline (exact, slow);
//   - HSP — exact search with hierarchical space partitioning;
//   - LORA — approximate search with cell grouping, query-dependent
//     sampling and rank-graph enumeration; orders of magnitude faster with
//     near-exact accuracy.
//
// Quickstart:
//
//	ds := spatialseq.MustGenerate(spatialseq.GaodeLike(50000, 1))
//	eng := spatialseq.NewEngine(ds)
//	q := &spatialseq.Query{Example: ex, Params: spatialseq.DefaultParams()}
//	res, err := eng.Search(context.Background(), q, spatialseq.LORA, spatialseq.Options{})
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package spatialseq

import (
	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/roadnet"
	"spatialseq/internal/stats"
	"spatialseq/internal/synth"
)

// Geometry primitives.
type (
	// Point is a planar location.
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
)

// Data model.
type (
	// Object is a point of interest with category and attributes.
	Object = dataset.Object
	// Dataset is an immutable POI collection.
	Dataset = dataset.Dataset
	// DatasetBuilder accumulates objects into a Dataset.
	DatasetBuilder = dataset.Builder
	// CategoryID identifies an object category.
	CategoryID = dataset.CategoryID
	// SynthConfig configures the synthetic dataset generators.
	SynthConfig = synth.Config
)

// Query model.
type (
	// Query is an example-based search request.
	Query = query.Query
	// Example is the user-provided example tuple t*.
	Example = query.Example
	// FixedPoint pins one example dimension to a dataset object (CSEQ-FP).
	FixedPoint = query.FixedPoint
	// Params are the tuning parameters (k, alpha, beta, D, xi).
	Params = query.Params
	// Variant selects SEQ, CSEQ or CSEQ-FP.
	Variant = query.Variant
	// Metric is a pluggable distance function (travel distances etc.).
	Metric = query.Metric
)

// Road-network travel-distance substrate.
type (
	// RoadNetwork is an embedded road graph whose travel distances can
	// serve as the query Metric.
	RoadNetwork = roadnet.Network
	// RoadGridConfig configures the synthetic street-grid generator.
	RoadGridConfig = roadnet.GridConfig
)

// RoadGrid generates a Manhattan-style street network; wrap it with
// NewMetric and set it on Example.Metric to search by travel distance.
func RoadGrid(cfg RoadGridConfig) (*RoadNetwork, error) { return roadnet.Grid(cfg) }

// NewRoadNetwork builds a road network from explicit nodes and edges.
func NewRoadNetwork(nodes []Point, edges [][2]int32, weights []float64) (*RoadNetwork, error) {
	return roadnet.NewNetwork(nodes, edges, weights)
}

// Problem variants.
const (
	// CSEQ is the norm-constrained exemplar query (the default problem).
	CSEQ = query.CSEQ
	// SEQ is the unconstrained original problem.
	SEQ = query.SEQ
	// CSEQFP is CSEQ with fixed points.
	CSEQFP = query.CSEQFP
)

// Engine and algorithms.
type (
	// Engine answers queries over one dataset.
	Engine = core.Engine
	// Algorithm selects the search algorithm.
	Algorithm = core.Algorithm
	// Options tunes algorithm internals (ablations); zero value = paper config.
	Options = core.Options
	// Result is a completed search.
	Result = core.Result
	// ResultTuple is one ranked answer.
	ResultTuple = core.ResultTuple
	// SearchStats are the per-search work counters attached to results
	// when Options.CollectStats is set.
	SearchStats = stats.Snapshot
)

// Algorithm choices.
const (
	// Auto picks the exact HSP, which answers at least as fast as LORA
	// at every measured size.
	Auto = core.Auto
	// BruteForce is the exhaustive oracle (tiny datasets only).
	BruteForce = core.BruteForce
	// DFSPrune is the CIKM'17 exact baseline.
	DFSPrune = core.DFSPrune
	// HSP is the exact hierarchical-space-partitioning algorithm.
	HSP = core.HSP
	// LORA is the fast approximate algorithm.
	LORA = core.LORA
)

// NewEngine builds a query engine (and its spatial index) over ds.
func NewEngine(ds *Dataset) *Engine { return core.NewEngine(ds) }

// DefaultParams returns the paper's default parameters
// (k=5, alpha=0.5, beta=1.5, D=5, xi=10).
func DefaultParams() Params { return query.DefaultParams() }

// ParseAlgorithm converts a CLI string ("hsp", "lora", ...) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// YelpLike returns the Yelp-calibrated synthetic dataset preset.
func YelpLike(n int, seed int64) SynthConfig { return synth.YelpLike(n, seed) }

// GaodeLike returns the Gaode-calibrated synthetic dataset preset.
func GaodeLike(n int, seed int64) SynthConfig { return synth.GaodeLike(n, seed) }

// Generate materialises a synthetic dataset.
func Generate(cfg SynthConfig) (*Dataset, error) { return synth.Generate(cfg) }

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg SynthConfig) *Dataset { return synth.MustGenerate(cfg) }

// ReadDatasetFile loads a dataset from path, sniffing the format (the
// library's binary layout or CSV).
func ReadDatasetFile(path string) (*Dataset, error) { return dataset.ReadAnyFile(path) }

// WriteDatasetFile stores ds as CSV at path.
func WriteDatasetFile(path string, ds *Dataset) error { return dataset.WriteFile(path, ds) }

// WriteDatasetBinaryFile stores ds in the library's compact binary layout,
// which loads roughly an order of magnitude faster than CSV — use it for
// Gaode-scale corpora.
func WriteDatasetBinaryFile(path string, ds *Dataset) error {
	return dataset.WriteBinaryFile(path, ds)
}
