// Package roadnet provides a road-network travel-distance substrate for
// the similarity model's pluggable metric (paper Section II-A: "applying
// other metrics such as traveling distances is possible").
//
// A Network is an undirected weighted graph embedded in the plane. Travel
// distance between two arbitrary locations is access leg (straight line to
// the nearest road node) + shortest path + egress leg; because every edge
// weight is at least its straight-line length, travel distance dominates
// the Euclidean distance, which keeps HSP's and LORA's Euclidean space
// partitioning sound under this metric (see query.Metric). A location
// snaps to its nearest road node through a partition.Index over the
// nodes, the midpoint tree the engine searches its objects with.
//
// Shortest-path trees are computed with Dijkstra's algorithm and cached
// per source node with an LRU policy, since example-based queries evaluate
// many distances from the same few example locations.
package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/partition"
)

// Network is an immutable embedded road graph. Build one with NewNetwork
// or the Grid generator; concurrent readers are safe (the metric cache is
// internally locked).
type Network struct {
	nodes []geo.Point
	adj   [][]halfEdge
	snap  *partition.Index // the nodes on the midpoint tree
}

type halfEdge struct {
	to int32
	w  float64
}

// NewNetwork builds a network from node locations and undirected edges.
// Node locations must be finite. Edge weights must be >= the
// straight-line distance between their endpoints; a weight of 0 means
// "use the straight-line distance".
func NewNetwork(nodes []geo.Point, edges [][2]int32, weights []float64) (*Network, error) {
	if len(weights) != 0 && len(weights) != len(edges) {
		return nil, fmt.Errorf("roadnet: %d weights for %d edges", len(weights), len(edges))
	}
	for i, p := range nodes {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return nil, fmt.Errorf("roadnet: node %d has non-finite location %v", i, p)
		}
	}
	n := &Network{
		nodes: append([]geo.Point(nil), nodes...),
		adj:   make([][]halfEdge, len(nodes)),
	}
	for i, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || int(a) >= len(nodes) || b < 0 || int(b) >= len(nodes) {
			return nil, fmt.Errorf("roadnet: edge %d references node out of range", i)
		}
		if a == b {
			return nil, fmt.Errorf("roadnet: edge %d is a self loop", i)
		}
		straight := nodes[a].Dist(nodes[b])
		w := straight
		if len(weights) != 0 && weights[i] != 0 {
			w = weights[i]
			if math.IsNaN(w) {
				return nil, fmt.Errorf("roadnet: edge %d weight is NaN", i)
			}
			if w < straight {
				return nil, fmt.Errorf("roadnet: edge %d weight %g below straight-line distance %g", i, w, straight)
			}
		}
		n.adj[a] = append(n.adj[a], halfEdge{to: b, w: w})
		n.adj[b] = append(n.adj[b], halfEdge{to: a, w: w})
	}
	n.snap = partition.NewPointIndex(n.nodes)
	return n, nil
}

// NumNodes returns the number of road nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Node returns the location of node i.
func (n *Network) Node(i int32) geo.Point { return n.nodes[i] }

// SnapNode returns the road node nearest to p, the lowest-numbered one
// on a tie, or -1 for an empty network.
func (n *Network) SnapNode(p geo.Point) int32 {
	nb := n.snap.Nearest(p, 1, dataset.NoCategory)
	if len(nb) == 0 {
		return -1
	}
	return nb[0].Pos
}

// ShortestPaths runs Dijkstra from src and returns the distance to every
// node (+Inf where unreachable).
func (n *Network) ShortestPaths(src int32) []float64 {
	dist := make([]float64, len(n.nodes))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	if src < 0 || int(src) >= len(n.nodes) {
		return dist
	}
	dist[src] = 0
	pq := distQueue{{node: src, dist: 0}}
	for len(pq) > 0 {
		it := pq.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, e := range n.adj[it.node] {
			if nd := it.dist + e.w; nd < dist[e.to] {
				dist[e.to] = nd
				pq.push(distItem{node: e.to, dist: nd})
			}
		}
	}
	return dist
}

type distItem struct {
	node int32
	dist float64
}

// distQueue is Dijkstra's binary min-heap on dist. It is typed, so no
// item is boxed on its way in or out, and it sifts as container/heap
// does, so items leave it in the same order, ties included.
type distQueue []distItem

func (q *distQueue) push(it distItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *distQueue) pop() distItem {
	h := *q
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].dist < h[j].dist {
			j = r
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return top
}

// Metric adapts a Network to query.Metric with an LRU cache of
// shortest-path trees keyed by snapped source node. It is safe for
// concurrent use.
type Metric struct {
	net *Network

	mu    sync.Mutex
	cache map[int32][]float64
	order []int32 // LRU order, oldest first
	cap   int
}

// DefaultCacheSize is the number of shortest-path trees a Metric retains.
const DefaultCacheSize = 64

// NewMetric wraps net as a query metric. cacheSize <= 0 selects
// DefaultCacheSize.
func (n *Network) NewMetric(cacheSize int) *Metric {
	if cacheSize <= 0 {
		cacheSize = DefaultCacheSize
	}
	return &Metric{net: n, cache: make(map[int32][]float64), cap: cacheSize}
}

// Dist implements query.Metric: access leg + shortest path + egress leg.
// Unreachable pairs fall back to a large multiple of the straight-line
// distance so the similarity model stays finite.
func (m *Metric) Dist(a, b geo.Point) float64 {
	if a == b {
		return 0
	}
	sa := m.net.SnapNode(a)
	sb := m.net.SnapNode(b)
	if sa < 0 || sb < 0 {
		return a.Dist(b)
	}
	// travel both directions of the symmetric graph are equal; cache by
	// the smaller node id for a better hit rate
	src, dst := sa, sb
	if dst < src {
		src, dst = dst, src
		a, b = b, a
	}
	dist := m.paths(src)
	d := dist[dst]
	if math.IsInf(d, 1) {
		// disconnected components: dominate Euclidean with a penalty
		return 10 * a.Dist(b) * unreachablePenalty
	}
	access := a.Dist(m.net.Node(src))
	egress := b.Dist(m.net.Node(dst))
	return access + d + egress
}

// unreachablePenalty scales the fallback for disconnected pairs.
const unreachablePenalty = 10

// DominatesEuclidean implements query.Metric: access + path + egress >=
// the straight line by the triangle inequality and w >= straight-line per
// edge.
func (m *Metric) DominatesEuclidean() bool { return true }

func (m *Metric) paths(src int32) []float64 {
	m.mu.Lock()
	if d, ok := m.cache[src]; ok {
		m.touch(src)
		m.mu.Unlock()
		return d
	}
	m.mu.Unlock()
	d := m.net.ShortestPaths(src) // compute outside the lock
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cache[src]; !ok {
		if len(m.order) >= m.cap {
			oldest := m.order[0]
			m.order = m.order[1:]
			delete(m.cache, oldest)
		}
		m.cache[src] = d
		m.order = append(m.order, src)
	}
	return m.cache[src]
}

// touch moves src to the back of the LRU order.
func (m *Metric) touch(src int32) {
	for i, s := range m.order {
		if s == src {
			copy(m.order[i:], m.order[i+1:])
			m.order[len(m.order)-1] = src
			return
		}
	}
}

// CacheLen reports the number of cached shortest-path trees (for tests).
func (m *Metric) CacheLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}

// GridConfig describes a synthetic street grid.
type GridConfig struct {
	// Bounds is the covered area.
	Bounds geo.Rect
	// NX, NY are the number of grid nodes per axis (>= 2).
	NX, NY int
	// DropFrac removes this fraction of street segments at random,
	// creating detours (and, at high values, possibly disconnected
	// blocks — the metric handles those with a penalty fallback).
	DropFrac float64
	// Meander multiplies each kept segment's weight by 1 + U(0, Meander),
	// modelling curvature and congestion. Weights never drop below the
	// straight-line length, preserving Euclidean domination.
	Meander float64
	// Seed drives the generator.
	Seed int64
}

// Grid generates a Manhattan-style street network.
func Grid(cfg GridConfig) (*Network, error) {
	if cfg.NX < 2 || cfg.NY < 2 {
		return nil, fmt.Errorf("roadnet: grid needs NX, NY >= 2, got %d x %d", cfg.NX, cfg.NY)
	}
	if cfg.Bounds.IsEmpty() || cfg.Bounds.Width() == 0 || cfg.Bounds.Height() == 0 {
		return nil, fmt.Errorf("roadnet: grid bounds must have positive area, got %v", cfg.Bounds)
	}
	if cfg.DropFrac < 0 || cfg.DropFrac >= 1 {
		return nil, fmt.Errorf("roadnet: DropFrac must be in [0,1), got %g", cfg.DropFrac)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := make([]geo.Point, 0, cfg.NX*cfg.NY)
	for y := 0; y < cfg.NY; y++ {
		for x := 0; x < cfg.NX; x++ {
			nodes = append(nodes, geo.Point{
				X: cfg.Bounds.MinX + cfg.Bounds.Width()*float64(x)/float64(cfg.NX-1),
				Y: cfg.Bounds.MinY + cfg.Bounds.Height()*float64(y)/float64(cfg.NY-1),
			})
		}
	}
	var edges [][2]int32
	var weights []float64
	addEdge := func(a, b int32) {
		if rng.Float64() < cfg.DropFrac {
			return
		}
		w := nodes[a].Dist(nodes[b])
		if cfg.Meander > 0 {
			w *= 1 + rng.Float64()*cfg.Meander
		}
		edges = append(edges, [2]int32{a, b})
		weights = append(weights, w)
	}
	id := func(x, y int) int32 { return int32(y*cfg.NX + x) }
	for y := 0; y < cfg.NY; y++ {
		for x := 0; x < cfg.NX; x++ {
			if x+1 < cfg.NX {
				addEdge(id(x, y), id(x+1, y))
			}
			if y+1 < cfg.NY {
				addEdge(id(x, y), id(x, y+1))
			}
		}
	}
	return NewNetwork(nodes, edges, weights)
}
