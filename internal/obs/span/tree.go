package span

import (
	"sort"
	"time"

	"spatialseq/internal/obs"
	"spatialseq/internal/stats"
)

// Node is one span in a snapshotted tree. Offsets are nanoseconds since
// the tree's wall-clock anchor; open spans are clamped to the snapshot
// time so every exported interval has a finite extent.
type Node struct {
	Name     string `json:"name"`
	Parent   int32  `json:"parent"`   // index into Nodes; -1 for roots
	Worker   int32  `json:"worker"`   // worker lane; -1 when untagged
	Subspace int32  `json:"subspace"` // subspace index; -1 when untagged
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Work is the counter delta attributed to this span (per-subspace
	// work, not running totals); nil when none was attached.
	Work *stats.Snapshot `json:"work,omitempty"`
}

// DurNS is the node's extent in nanoseconds.
func (n Node) DurNS() int64 { return n.EndNS - n.StartNS }

// Tree is an immutable snapshot of a tracer's arena, the shape the
// flight recorder retains for slow queries and the server renders as a
// Chrome trace export.
type Tree struct {
	// StartUnixNS anchors offset 0 on the wall clock, so exports carry
	// absolute timestamps.
	StartUnixNS int64 `json:"start_unix_ns"`
	// Dropped counts spans discarded by the tree bounds at capture time.
	Dropped int64  `json:"dropped,omitempty"`
	Nodes   []Node `json:"nodes"`
}

// Snapshot copies the arena into an immutable Tree, clamping still-open
// spans to now. It returns nil when no spans were recorded (nil tracer,
// tracing off, or a cache hit that never reached the engine) — callers
// gate retention on that, keeping the allocation off the fast path.
func (t *Tracer) Snapshot() *Tree {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.nodes) == 0 {
		return nil
	}
	now := int64(time.Since(t.epoch))
	tree := &Tree{StartUnixNS: t.wallNS, Dropped: t.dropped, Nodes: make([]Node, len(t.nodes))}
	for i, n := range t.nodes {
		end := n.endNS
		if end < 0 {
			end = now
		}
		nd := Node{
			Name:     n.name,
			Parent:   n.parent,
			Worker:   n.worker,
			Subspace: n.subspace,
			StartNS:  n.startNS,
			EndNS:    end,
		}
		if n.hasWork {
			w := n.work
			nd.Work = &w
		}
		tree.Nodes[i] = nd
	}
	return tree
}

// PhaseTimings returns the flat per-phase aggregate in first-opened
// order: each name's ended spans with their self time (duration minus
// child spans' durations) summed, whether or not the tree kept them as
// nodes, so the totals are exact at any tree size. Roots are not
// phases. A phase recorded on more than one worker lane is marked
// Parallel: its duration then sums time across workers and may exceed
// the query's wall time. Returns nil when no phase was recorded.
func (t *Tracer) PhaseTimings() []obs.PhaseTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []obs.PhaseTiming
	for _, p := range t.phases {
		if p.count == 0 {
			continue // opened, never ended
		}
		out = append(out, obs.PhaseTiming{
			Name:       p.name,
			DurationMS: float64(p.ns) / float64(time.Millisecond),
			Count:      p.count,
			Parallel:   p.parallel,
		})
	}
	return out
}

// SkewReport attributes a query's parallel imbalance: how unevenly the
// worker lanes were loaded and which subspace stalled the tail. It is
// the per-query signal behind spatialseq_subspace_imbalance_ratio and
// the baseline `seqbench -exp skew` reports — the number a future
// work-stealing scheduler must beat.
type SkewReport struct {
	// Workers is the number of distinct worker lanes that recorded spans.
	Workers int `json:"workers"`
	// ImbalanceRatio is max worker busy time / mean worker busy time;
	// 1.0 is a perfectly balanced query.
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	MaxWorkerMS    float64 `json:"max_worker_ms"`
	MeanWorkerMS   float64 `json:"mean_worker_ms"`
	// StragglerWorker is the lane with the largest busy time.
	StragglerWorker int32 `json:"straggler_worker"`
	// StragglerSubspace identifies the single longest subspace span, the
	// natural first target for work stealing; -1 when none was tagged.
	StragglerSubspace int32   `json:"straggler_subspace"`
	StragglerMS       float64 `json:"straggler_ms"`
	// CriticalPathMS is the length of the dependency-ordered chain the
	// query cannot go below with more parallelism.
	CriticalPathMS float64 `json:"critical_path_ms"`
	// SpanMS is the wall extent of the whole trace.
	SpanMS float64 `json:"span_ms"`
	// Parallel reports whether more than one worker lane ran.
	Parallel bool `json:"parallel"`
}

// Skew computes the skew report from the current arena. It returns nil
// when the trace holds no worker spans (brute force, cache hits, or
// tracing off) — callers observe skew metrics only when a report exists.
func (t *Tracer) Skew() *SkewReport {
	if t == nil {
		return nil
	}
	return t.Snapshot().Skew()
}

// Skew computes the skew report from a snapshotted tree; see
// Tracer.Skew. A nil tree yields nil.
func (tr *Tree) Skew() *SkewReport {
	if tr == nil || len(tr.Nodes) == 0 {
		return nil
	}
	// Worker busy time: sum the top worker spans of each lane (a worker
	// span whose parent is not itself on a worker lane).
	var laneOrder []int32
	busy := make(map[int32]int64)
	for _, n := range tr.Nodes {
		if n.Worker < 0 {
			continue
		}
		if n.Parent >= 0 && tr.Nodes[n.Parent].Worker >= 0 {
			continue // nested inside the lane; already covered by the top span
		}
		if _, ok := busy[n.Worker]; !ok {
			laneOrder = append(laneOrder, n.Worker)
		}
		busy[n.Worker] += n.DurNS()
	}
	if len(laneOrder) == 0 {
		return nil
	}
	rep := &SkewReport{Workers: len(laneOrder), StragglerSubspace: -1}
	var total, max int64
	for _, w := range laneOrder {
		b := busy[w]
		total += b
		if b > max {
			max = b
			rep.StragglerWorker = w
		}
	}
	mean := float64(total) / float64(len(laneOrder))
	rep.MaxWorkerMS = float64(max) / float64(time.Millisecond)
	rep.MeanWorkerMS = mean / float64(time.Millisecond)
	if mean > 0 {
		rep.ImbalanceRatio = float64(max) / mean
	}
	rep.Parallel = len(laneOrder) > 1

	var stragglerDur int64
	for _, n := range tr.Nodes {
		if n.Subspace >= 0 && n.DurNS() > stragglerDur {
			stragglerDur = n.DurNS()
			rep.StragglerSubspace = n.Subspace
		}
	}
	rep.StragglerMS = float64(stragglerDur) / float64(time.Millisecond)

	minStart, maxEnd := tr.Nodes[0].StartNS, tr.Nodes[0].EndNS
	for _, n := range tr.Nodes[1:] {
		if n.StartNS < minStart {
			minStart = n.StartNS
		}
		if n.EndNS > maxEnd {
			maxEnd = n.EndNS
		}
	}
	rep.SpanMS = float64(maxEnd-minStart) / float64(time.Millisecond)
	rep.CriticalPathMS = float64(tr.criticalPathNS()) / float64(time.Millisecond)
	return rep
}

// criticalPathNS computes the length of the longest dependency chain:
// for each span, its exclusive time (extent not covered by children)
// plus, for every cluster of time-overlapping children, the largest
// critical path inside the cluster — overlapping children ran in
// parallel, sequential children chain.
func (tr *Tree) criticalPathNS() int64 {
	children := make([][]int32, len(tr.Nodes))
	var roots []int32
	for i, n := range tr.Nodes {
		if n.Parent >= 0 {
			children[n.Parent] = append(children[n.Parent], int32(i))
		} else {
			roots = append(roots, int32(i))
		}
	}
	var cp func(i int32) int64
	cp = func(i int32) int64 {
		n := tr.Nodes[i]
		kids := children[i]
		if len(kids) == 0 {
			return n.DurNS()
		}
		covered, chained := clusterPath(tr, kids, cp)
		exclusive := n.DurNS() - covered
		if exclusive < 0 {
			exclusive = 0
		}
		return exclusive + chained
	}
	if len(roots) == 1 {
		return cp(roots[0])
	}
	_, chained := clusterPath(tr, roots, cp)
	return chained
}

// clusterPath sorts the sibling spans by start, merges time-overlapping
// ones into clusters, and returns (total covered extent, sum over
// clusters of the largest member critical path).
func clusterPath(tr *Tree, sibs []int32, cp func(int32) int64) (covered, chained int64) {
	sort.Slice(sibs, func(a, b int) bool { return tr.Nodes[sibs[a]].StartNS < tr.Nodes[sibs[b]].StartNS })
	clusterEnd := int64(0)
	clusterStart := int64(0)
	clusterMax := int64(0)
	flush := func() {
		covered += clusterEnd - clusterStart
		chained += clusterMax
	}
	for j, id := range sibs {
		n := tr.Nodes[id]
		if j == 0 || n.StartNS >= clusterEnd {
			if j > 0 {
				flush()
			}
			clusterStart, clusterEnd, clusterMax = n.StartNS, n.EndNS, 0
		}
		if n.EndNS > clusterEnd {
			clusterEnd = n.EndNS
		}
		if c := cp(id); c > clusterMax {
			clusterMax = c
		}
	}
	flush()
	return covered, chained
}
