package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"spatialseq/internal/geo"
)

func testGrid(t *testing.T, drop, meander float64) *Network {
	t.Helper()
	net, err := Grid(GridConfig{
		Bounds: geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10},
		NX:     11, NY: 11,
		DropFrac: drop,
		Meander:  meander,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGridShape(t *testing.T) {
	net := testGrid(t, 0, 0)
	if net.NumNodes() != 121 {
		t.Fatalf("NumNodes = %d", net.NumNodes())
	}
}

func TestGridValidation(t *testing.T) {
	bad := []GridConfig{
		{NX: 1, NY: 5, Bounds: geo.Rect{MaxX: 1, MaxY: 1}},
		{NX: 5, NY: 5}, // empty bounds
		{NX: 5, NY: 5, DropFrac: 1.5, Bounds: geo.Rect{MaxX: 1, MaxY: 1}},
	}
	for i, cfg := range bad {
		if _, err := Grid(cfg); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestNewNetworkValidation(t *testing.T) {
	nodes := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}
	if _, err := NewNetwork(nodes, [][2]int32{{0, 5}}, nil); err == nil {
		t.Error("out-of-range edge should fail")
	}
	if _, err := NewNetwork(nodes, [][2]int32{{0, 0}}, nil); err == nil {
		t.Error("self loop should fail")
	}
	if _, err := NewNetwork(nodes, [][2]int32{{0, 1}}, []float64{0.5}); err == nil {
		t.Error("sub-Euclidean weight should fail")
	}
	if _, err := NewNetwork(nodes, [][2]int32{{0, 1}}, []float64{1, 2}); err == nil {
		t.Error("weight count mismatch should fail")
	}
	if _, err := NewNetwork(nodes, [][2]int32{{0, 1}}, []float64{math.NaN()}); err == nil {
		t.Error("NaN weight should fail")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []geo.Point{{X: nan, Y: nan}, {X: 1, Y: nan}, {X: inf, Y: 0}, {X: 0, Y: -inf}} {
		// An edge to a NaN node would pass the weight check: w < NaN is false.
		nodes := []geo.Point{{X: 0, Y: 0}, bad, bad, {X: 2, Y: 2}}
		if _, err := NewNetwork(nodes, [][2]int32{{0, 1}, {2, 3}}, nil); err == nil {
			t.Errorf("node %v should fail", bad)
		}
		if _, err := NewNetwork(nodes, nil, nil); err == nil {
			t.Errorf("node %v without edges should fail", bad)
		}
	}
}

func TestManhattanDistanceOnPerfectGrid(t *testing.T) {
	net := testGrid(t, 0, 0)
	// node (0,0) to node (10,10): Manhattan distance = 20 on a unit grid
	src := net.SnapNode(geo.Point{X: 0, Y: 0})
	dst := net.SnapNode(geo.Point{X: 10, Y: 10})
	d := net.ShortestPaths(src)[dst]
	if math.Abs(d-20) > 1e-9 {
		t.Errorf("corner-to-corner = %g, want 20", d)
	}
}

func TestShortestPathsAgainstBellmanFord(t *testing.T) {
	net := testGrid(t, 0.2, 0.5)
	// reference: Bellman-Ford
	n := net.NumNodes()
	const inf = math.MaxFloat64
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = inf
	}
	src := int32(0)
	ref[src] = 0
	type edge struct {
		a, b int32
		w    float64
	}
	var edges []edge
	for a := int32(0); int(a) < n; a++ {
		for _, he := range net.adj[a] {
			edges = append(edges, edge{a: a, b: he.to, w: he.w})
		}
	}
	for iter := 0; iter < n; iter++ {
		changed := false
		for _, e := range edges {
			if ref[e.a] != inf && ref[e.a]+e.w < ref[e.b] {
				ref[e.b] = ref[e.a] + e.w
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	got := net.ShortestPaths(src)
	for i := 0; i < n; i++ {
		want := ref[i]
		if want == inf {
			if !math.IsInf(got[i], 1) {
				t.Fatalf("node %d: got %g, want +Inf", i, got[i])
			}
			continue
		}
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("node %d: Dijkstra %g, Bellman-Ford %g", i, got[i], want)
		}
	}
}

func TestMetricProperties(t *testing.T) {
	net := testGrid(t, 0.15, 0.4)
	m := net.NewMetric(16)
	if !m.DominatesEuclidean() {
		t.Fatal("road metric must dominate Euclidean")
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		a := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		b := geo.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
		d := m.Dist(a, b)
		if d < a.Dist(b)-1e-9 {
			t.Fatalf("metric %g below Euclidean %g for %v %v", d, a.Dist(b), a, b)
		}
		if back := m.Dist(b, a); math.Abs(back-d) > 1e-9 {
			t.Fatalf("metric not symmetric: %g vs %g", d, back)
		}
	}
	if m.Dist(geo.Point{X: 3, Y: 3}, geo.Point{X: 3, Y: 3}) != 0 {
		t.Error("d(x,x) must be 0")
	}
}

func TestMetricCacheLRU(t *testing.T) {
	net := testGrid(t, 0, 0)
	m := net.NewMetric(2)
	pts := []geo.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 10, Y: 10}, {X: 0, Y: 10}}
	for _, p := range pts {
		m.Dist(p, geo.Point{X: 9, Y: 9})
	}
	if got := m.CacheLen(); got > 2 {
		t.Errorf("cache grew to %d, cap 2", got)
	}
	// determinism: cached vs fresh distances agree
	d1 := m.Dist(pts[0], pts[2])
	d2 := m.Dist(pts[0], pts[2])
	if d1 != d2 {
		t.Errorf("cached distance differs: %g vs %g", d1, d2)
	}
}

func TestDisconnectedFallback(t *testing.T) {
	// two disconnected segments
	nodes := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 10, Y: 0}, {X: 11, Y: 0}}
	net, err := NewNetwork(nodes, [][2]int32{{0, 1}, {2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := net.NewMetric(0)
	a := geo.Point{X: 0.5, Y: 0}
	b := geo.Point{X: 10.5, Y: 0}
	d := m.Dist(a, b)
	if math.IsInf(d, 1) || math.IsNaN(d) {
		t.Fatalf("disconnected distance must be finite, got %g", d)
	}
	if d < a.Dist(b) {
		t.Errorf("fallback %g must still dominate Euclidean %g", d, a.Dist(b))
	}
}

func TestEmptyNetworkSnap(t *testing.T) {
	net, err := NewNetwork(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.SnapNode(geo.Point{}); got != -1 {
		t.Errorf("SnapNode on empty network = %d", got)
	}
	m := net.NewMetric(0)
	a, b := geo.Point{X: 1, Y: 1}, geo.Point{X: 4, Y: 5}
	if d := m.Dist(a, b); d != 5 {
		t.Errorf("empty network falls back to Euclidean; got %g", d)
	}
}

// bruteSnap ranks every node by distance from p and then by index.
func bruteSnap(net *Network, p geo.Point) int32 {
	best := int32(-1)
	for i := int32(0); int(i) < net.NumNodes(); i++ {
		if best < 0 || net.Node(i).Dist(p) < net.Node(best).Dist(p) {
			best = i
		}
	}
	return best
}

// TestSnapNodeMatchesBrute holds SnapNode to a brute scan ranked by
// distance and then node index: at cell centres, which tie four nodes,
// at the nodes, and at random points inside and outside the bounds, on
// street grids from 2x2 up, on a network whose nodes repeat a few
// locations, and on a single node.
func TestSnapNodeMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type snapCase struct {
		net     *Network
		centres []geo.Point
	}
	var cases []snapCase
	for _, cfg := range []GridConfig{
		{Bounds: geo.Rect{MaxX: 1, MaxY: 1}, NX: 2, NY: 2},
		{Bounds: geo.Rect{MaxX: 10, MaxY: 10}, NX: 11, NY: 11, DropFrac: 0.1, Meander: 0.3, Seed: 1},
		{Bounds: geo.Rect{MinX: -3.7, MinY: 1.3, MaxX: 41.9, MaxY: 20.2}, NX: 37, NY: 23, DropFrac: 0.1, Meander: 0.3, Seed: 2},
	} {
		net, err := Grid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := snapCase{net: net}
		for y := 0; y+1 < cfg.NY; y++ {
			for x := 0; x+1 < cfg.NX; x++ {
				a, b := net.Node(int32(y*cfg.NX+x)), net.Node(int32((y+1)*cfg.NX+x+1))
				c.centres = append(c.centres, geo.Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2})
			}
		}
		cases = append(cases, c)
	}
	sites := []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 0.5, Y: 0.5}, {X: 3, Y: -2}}
	var dups []geo.Point
	for i := 0; i < 60; i++ {
		dups = append(dups, sites[rng.Intn(len(sites))])
	}
	net, err := NewNetwork(dups, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, snapCase{net: net, centres: []geo.Point{{X: 0.5, Y: 0}, {X: 0.25, Y: 0.25}, {X: 0.5, Y: 1}, {X: 2, Y: -1}}})
	single, err := NewNetwork([]geo.Point{{X: 2, Y: 3}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, snapCase{net: single, centres: []geo.Point{{X: -5, Y: 40}, {X: 2, Y: 3.5}}})
	for ci, c := range cases {
		var nodes []geo.Point
		for i := int32(0); int(i) < c.net.NumNodes(); i++ {
			nodes = append(nodes, c.net.Node(i))
		}
		b := geo.RectFromPoints(nodes)
		queries := append(append([]geo.Point(nil), nodes...), c.centres...)
		for i := 0; i < 500; i++ {
			queries = append(queries, geo.Point{
				X: b.MinX - b.Width() + rng.Float64()*3*b.Width(),
				Y: b.MinY - b.Height() + rng.Float64()*3*b.Height(),
			})
		}
		for _, q := range queries {
			if got, want := c.net.SnapNode(q), bruteSnap(c.net, q); got != want {
				t.Fatalf("network %d: SnapNode(%v) = %d, brute %d at %g", ci, q, got, want, c.net.Node(want).Dist(q))
			}
		}
	}
}

// TestSnapNodeAllocatesOnlyItsResult bounds a snap at one allocation: the
// search's one-neighbour result.
func TestSnapNodeAllocatesOnlyItsResult(t *testing.T) {
	net := testGrid(t, 0.1, 0.3)
	q := geo.Point{X: 3.5, Y: 6.5}
	if allocs := testing.AllocsPerRun(100, func() { net.SnapNode(q) }); allocs > 1 {
		t.Errorf("SnapNode made %g allocations, want at most 1", allocs)
	}
}
