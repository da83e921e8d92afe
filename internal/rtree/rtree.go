// Package rtree implements a static, bulk-loaded R-tree over 2-D points
// using Sort-Tile-Recursive (STR) packing. The road network
// (internal/roadnet) uses its nearest-neighbor search to snap a location
// to its nearest road node; the dataset's own range and nearest-object
// queries go through partition.Index.
//
// The tree is immutable after New and safe for concurrent readers.
package rtree

import (
	"sort"

	"spatialseq/internal/geo"
)

// DefaultFanout is the node capacity used when NewWithFanout is not called.
const DefaultFanout = 16

// Tree is a static R-tree over a set of points. Each point carries an
// int32 payload (its position in the owning dataset).
type Tree struct {
	nodes    []node
	leaves   []entry
	childIdx []int32 // flattened child lists of internal nodes
	root     int32   // index into nodes; -1 when empty
	fanout   int
}

type entry struct {
	pt  geo.Point
	ref int32
}

type node struct {
	bounds geo.Rect
	// leaf nodes reference a slice of leaves[first:first+count];
	// internal nodes reference a slice of child node indexes.
	first, count int32
	leaf         bool
}

// New bulk-loads a tree with the default fanout. pts[i] carries payload
// refs[i]; refs may be nil, in which case the payload is the position i.
func New(pts []geo.Point, refs []int32) *Tree {
	return NewWithFanout(pts, refs, DefaultFanout)
}

// NewWithFanout bulk-loads a tree with the given node capacity (minimum 2).
func NewWithFanout(pts []geo.Point, refs []int32, fanout int) *Tree {
	if fanout < 2 {
		fanout = 2
	}
	t := &Tree{root: -1, fanout: fanout}
	if len(pts) == 0 {
		return t
	}
	t.leaves = make([]entry, len(pts))
	for i, p := range pts {
		ref := int32(i)
		if refs != nil {
			ref = refs[i]
		}
		t.leaves[i] = entry{pt: p, ref: ref}
	}
	strSort(t.leaves, fanout)

	// Build leaf nodes over runs of fanout entries, then pack upward.
	level := make([]int32, 0, (len(t.leaves)+fanout-1)/fanout)
	for first := 0; first < len(t.leaves); first += fanout {
		count := min(fanout, len(t.leaves)-first)
		b := geo.EmptyRect()
		for _, e := range t.leaves[first : first+count] {
			b = b.ExtendPoint(e.pt)
		}
		t.nodes = append(t.nodes, node{bounds: b, first: int32(first), count: int32(count), leaf: true})
		level = append(level, int32(len(t.nodes)-1))
	}
	for len(level) > 1 {
		next := make([]int32, 0, (len(level)+fanout-1)/fanout)
		for first := 0; first < len(level); first += fanout {
			count := min(fanout, len(level)-first)
			b := geo.EmptyRect()
			childFirst := int32(len(t.childIdx))
			for _, ci := range level[first : first+count] {
				b = b.Union(t.nodes[ci].bounds)
				t.childIdx = append(t.childIdx, ci)
			}
			t.nodes = append(t.nodes, node{bounds: b, first: childFirst, count: int32(count)})
			next = append(next, int32(len(t.nodes)-1))
		}
		level = next
	}
	t.root = level[0]
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.leaves) }

// Bounds returns the bounding rectangle of all points (empty when Len==0).
func (t *Tree) Bounds() geo.Rect {
	if t.root < 0 {
		return geo.EmptyRect()
	}
	return t.nodes[t.root].bounds
}

// Search appends to dst the payloads of all points inside rect (closed
// bounds) and returns dst.
func (t *Tree) Search(rect geo.Rect, dst []int32) []int32 {
	if t.root < 0 || rect.IsEmpty() {
		return dst
	}
	return t.search(t.root, rect, dst)
}

func (t *Tree) search(ni int32, rect geo.Rect, dst []int32) []int32 {
	n := &t.nodes[ni]
	if !rect.Intersects(n.bounds) {
		return dst
	}
	if n.leaf {
		covered := rect.ContainsRect(n.bounds)
		for _, e := range t.leaves[n.first : n.first+n.count] {
			if covered || rect.Contains(e.pt) {
				dst = append(dst, e.ref)
			}
		}
		return dst
	}
	if rect.ContainsRect(n.bounds) {
		return t.collect(ni, dst)
	}
	for _, ci := range t.childIdx[n.first : n.first+n.count] {
		dst = t.search(ci, rect, dst)
	}
	return dst
}

func (t *Tree) collect(ni int32, dst []int32) []int32 {
	n := &t.nodes[ni]
	if n.leaf {
		for _, e := range t.leaves[n.first : n.first+n.count] {
			dst = append(dst, e.ref)
		}
		return dst
	}
	for _, ci := range t.childIdx[n.first : n.first+n.count] {
		dst = t.collect(ci, dst)
	}
	return dst
}

// Count returns the number of points inside rect without materialising them.
func (t *Tree) Count(rect geo.Rect) int {
	if t.root < 0 || rect.IsEmpty() {
		return 0
	}
	return t.count(t.root, rect)
}

func (t *Tree) count(ni int32, rect geo.Rect) int {
	n := &t.nodes[ni]
	if !rect.Intersects(n.bounds) {
		return 0
	}
	if rect.ContainsRect(n.bounds) {
		return t.subtreeSize(ni)
	}
	if n.leaf {
		c := 0
		for _, e := range t.leaves[n.first : n.first+n.count] {
			if rect.Contains(e.pt) {
				c++
			}
		}
		return c
	}
	c := 0
	for _, ci := range t.childIdx[n.first : n.first+n.count] {
		c += t.count(ci, rect)
	}
	return c
}

func (t *Tree) subtreeSize(ni int32) int {
	n := &t.nodes[ni]
	if n.leaf {
		return int(n.count)
	}
	c := 0
	for _, ci := range t.childIdx[n.first : n.first+n.count] {
		c += t.subtreeSize(ci)
	}
	return c
}

// strSort arranges entries in Sort-Tile-Recursive order: sort by X, cut
// into vertical slabs of ~sqrt(n/fanout) leaf groups each, then sort each
// slab by Y. Consecutive runs of fanout entries then form well-shaped
// leaf rectangles.
func strSort(es []entry, fanout int) {
	n := len(es)
	sort.Slice(es, func(i, j int) bool {
		//lint:ignore floatcmp exact tie on X falls through to Y for a total sort order
		if es[i].pt.X != es[j].pt.X {
			return es[i].pt.X < es[j].pt.X
		}
		return es[i].pt.Y < es[j].pt.Y
	})
	leafCount := (n + fanout - 1) / fanout
	slabCount := isqrtCeil(leafCount)
	if slabCount == 0 {
		return
	}
	slabSize := ((leafCount+slabCount-1)/slabCount + 0) * fanout
	for start := 0; start < n; start += slabSize {
		end := min(start+slabSize, n)
		slab := es[start:end]
		sort.Slice(slab, func(i, j int) bool {
			//lint:ignore floatcmp exact tie on Y falls through to X for a total sort order
			if slab[i].pt.Y != slab[j].pt.Y {
				return slab[i].pt.Y < slab[j].pt.Y
			}
			return slab[i].pt.X < slab[j].pt.X
		})
	}
}

func isqrtCeil(n int) int {
	if n <= 0 {
		return 0
	}
	r := 1
	for r*r < n {
		r++
	}
	return r
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
