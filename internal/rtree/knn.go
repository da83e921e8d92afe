package rtree

import (
	"container/heap"

	"spatialseq/internal/geo"
)

// Neighbor is one k-nearest-neighbor result.
type Neighbor struct {
	Ref  int32
	Dist float64
}

// Nearest returns the k points closest to q in ascending distance order
// (ties broken by payload). filter, when non-nil, rejects candidates by
// payload. Fewer than k results are returned when the (filtered) tree is
// smaller.
//
// The search is the classic best-first traversal: a priority queue holds
// tree nodes keyed by the minimal distance from q to their bounding
// rectangle, so subtrees are opened lazily and only while they can still
// contain a closer point than the current k-th best.
func (t *Tree) Nearest(q geo.Point, k int, filter func(ref int32) bool) []Neighbor {
	if t.root < 0 || k <= 0 {
		return nil
	}
	pq := &knnQueue{}
	heap.Push(pq, knnItem{dist: t.nodes[t.root].bounds.MinDistPoint(q), node: t.root, isNode: true})
	var out []Neighbor
	for pq.Len() > 0 {
		it := heap.Pop(pq).(knnItem)
		if len(out) >= k && it.dist > out[len(out)-1].Dist {
			break
		}
		if !it.isNode {
			out = insertNeighbor(out, Neighbor{Ref: it.ref, Dist: it.dist}, k)
			continue
		}
		n := &t.nodes[it.node]
		if n.leaf {
			for _, e := range t.leaves[n.first : n.first+n.count] {
				if filter != nil && !filter(e.ref) {
					continue
				}
				heap.Push(pq, knnItem{dist: e.pt.Dist(q), ref: e.ref})
			}
			continue
		}
		for _, ci := range t.childIdx[n.first : n.first+n.count] {
			heap.Push(pq, knnItem{dist: t.nodes[ci].bounds.MinDistPoint(q), node: ci, isNode: true})
		}
	}
	return out
}

// insertNeighbor keeps out sorted ascending by (dist, ref), capped at k.
func insertNeighbor(out []Neighbor, nb Neighbor, k int) []Neighbor {
	pos := len(out)
	for pos > 0 {
		prev := out[pos-1]
		//lint:ignore floatcmp exact tie detection feeds the deterministic ref ordering
		if prev.Dist < nb.Dist || (prev.Dist == nb.Dist && prev.Ref <= nb.Ref) {
			break
		}
		pos--
	}
	if pos >= k {
		return out
	}
	out = append(out, Neighbor{})
	copy(out[pos+1:], out[pos:])
	out[pos] = nb
	if len(out) > k {
		out = out[:k]
	}
	return out
}

type knnItem struct {
	dist   float64
	node   int32
	ref    int32
	isNode bool
}

type knnQueue []knnItem

func (q knnQueue) Len() int { return len(q) }
func (q knnQueue) Less(i, j int) bool {
	//lint:ignore floatcmp exact tie detection; equal distances fall through to kind order
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	// visit leaf entries before nodes at equal distance so equal-distance
	// results resolve deterministically
	return !q[i].isNode && q[j].isNode
}
func (q knnQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *knnQueue) Push(x any)   { *q = append(*q, x.(knnItem)) }
func (q *knnQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}
