// Package span is the query's one timing instrument: a bounded tree of
// named time intervals, where each parallel subspace worker records its
// own timeline, plus an exact per-name table of the time spent in each
// phase. A span may carry a stats.Snapshot work delta, so a retained
// trace explains both *where* the time went and *what* was done there.
//
// The package sits in the observability leaf band next to
// internal/obs/flight: it may import only internal/obs (phase-timing
// shape) and internal/stats (work counters). The flight recorder
// references *Tree values in retained records; the server renders them
// as Chrome trace-event JSON.
//
// Emission is allocation-free apart from the bounded arena append and
// the phase table's growth at a name's first span: a nil *Tracer
// (tracing off) and the zero Span are safe no-ops on every method, so
// the algorithms thread spans through unconditionally — the same
// discipline as *stats.Stats.
package span

import (
	"sync"
	"time"

	"spatialseq/internal/stats"
)

// Tree-size bounds: a buggy caller cannot grow a request's span tree
// without limit. Spans beyond either bound take no node (counted, with
// their whole subtree); their time still reaches the phase table.
const (
	DefaultMaxNodes = 512
	DefaultMaxDepth = 8
)

// maxPhases bounds the distinct phase names one tracer will time, so a
// caller generating unbounded names cannot grow the table either. A
// span ended under a further name is counted in PhasesDropped.
const maxPhases = 64

// noID marks a span handle that took no arena node; children of a
// dropped span are dropped (and counted) too.
const noID = int32(-1)

// Phase-table slots of span handles that record no phase of their own:
// roots (and the zero Span), and spans named past maxPhases.
const (
	noPhase   = int16(-1)
	overPhase = int16(-2)
)

// node is one span in the arena. Offsets are nanoseconds since the
// tracer's epoch, from the monotonic clock; endNS < 0 means still open.
type node struct {
	name     string
	parent   int32 // arena index; -1 for roots
	worker   int32 // worker lane; -1 when untagged
	subspace int32 // subspace index; -1 unless tagged by Unit
	depth    int16
	hasWork  bool
	startNS  int64
	endNS    int64
	work     stats.Snapshot
}

// phase is one name's running total: the summed self time of its ended
// spans, kept as nodes or not.
type phase struct {
	name     string
	ns       int64
	count    int64
	lane     int32 // worker lane of the first recording
	parallel bool  // recorded on more than one lane
}

// Tracer owns one query's span arena and phase table. One Tracer covers
// one query execution and is safe for concurrent use by parallel
// workers. A nil *Tracer is a no-op everywhere; allocate one per query
// only when span tracing is wanted.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time // monotonic anchor for all offsets
	wallNS   int64     // wall-clock time of offset 0 (for absolute export)
	maxNodes int
	maxDepth int
	dropped  int64
	nodes    []node

	phases        []phase
	phasesDropped int64
}

// NewTracer returns a tracer with the default tree bounds.
func NewTracer() *Tracer {
	return NewTracerLimits(DefaultMaxNodes, DefaultMaxDepth)
}

// NewTracerLimits returns a tracer bounded to maxNodes spans and
// maxDepth nesting levels; non-positive arguments take the defaults.
func NewTracerLimits(maxNodes, maxDepth int) *Tracer {
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	if maxDepth <= 0 {
		maxDepth = DefaultMaxDepth
	}
	capHint := 64
	if capHint > maxNodes {
		capHint = maxNodes
	}
	now := time.Now()
	return &Tracer{
		epoch:    now,
		wallNS:   now.UnixNano(),
		maxNodes: maxNodes,
		maxDepth: maxDepth,
		nodes:    make([]node, 0, capHint),
		// Every search's phases fit: DFS-Prune has 4 names, HSP 7, LORA 8.
		phases: make([]phase, 0, 8),
	}
}

// Span is a handle on one span of a tracer. The zero Span (from a nil
// Tracer) is a no-op on every method and yields no-op children, so
// callers never branch on whether tracing is enabled.
type Span struct {
	t       *Tracer
	id      int32 // arena index, or noID
	depth   int16
	phase   int16 // this span's phase-table slot
	under   int16 // the parent's slot, whose self time excludes this span
	worker  int32
	startNS int64
}

// Root opens a top-level span. Roots are containers, not phases: their
// time is not tabled. A nil tracer yields the no-op zero Span.
//
//seq:hotpath
func (t *Tracer) Root(name string) Span {
	if t == nil {
		return Span{}
	}
	return t.add(name, noID, 0, noPhase, noID, noID, true)
}

// Child opens a sub-span of s, inheriting s's worker lane.
//
//seq:hotpath
func (s Span) Child(name string) Span {
	return s.open(name, s.worker, noID, true)
}

// Unit opens a sub-span tagged with both a worker lane and a subspace
// index: one stolen work unit (a subspace prep, or a chunk of a
// subspace's root candidates) executed by worker w. The stealing paths
// emit these directly under the algorithm root — there is no long-lived
// per-goroutine container span, because a worker parked on the
// scheduler is idle and must not count as busy in Tree.Skew's
// imbalance accounting.
//
//seq:hotpath
func (s Span) Unit(name string, w, idx int) Span {
	return s.open(name, int32(w), int32(idx), true)
}

// Tally opens a sub-span that is timed into the phase table but takes
// no arena node and does not count as dropped: for calls too numerous
// for the tree, such as LORA's point enumeration of every cell tuple.
// It inherits s's worker lane; its children are dropped from the tree.
//
//seq:hotpath
func (s Span) Tally(name string) Span {
	return s.open(name, s.worker, noID, false)
}

//seq:hotpath
func (s Span) open(name string, worker, subspace int32, keep bool) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.add(name, s.id, s.depth+1, s.phase, worker, subspace, keep)
}

// add opens a span. It takes an arena node when one is wanted and the
// parent, the depth and the node bounds allow; otherwise the span is
// timed but dropped from the tree (counted, unless it was a Tally).
//
//seq:hotpath
func (t *Tracer) add(name string, parent int32, depth, under int16, worker, subspace int32, keep bool) Span {
	start := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := Span{t: t, id: noID, depth: depth, phase: noPhase, under: under, worker: worker, startNS: start}
	if depth > 0 {
		sp.phase = t.slot(name)
	}
	switch {
	case !keep:
	case (depth > 0 && parent == noID) || int(depth) >= t.maxDepth || len(t.nodes) >= t.maxNodes:
		t.dropped++
	default:
		sp.id = int32(len(t.nodes))
		//lint:ignore hotpathalloc arena append is bounded by maxNodes; growth beyond the initial capacity amortises across the query
		t.nodes = append(t.nodes, node{
			name:     name,
			parent:   parent,
			worker:   worker,
			subspace: subspace,
			depth:    depth,
			startNS:  start,
			endNS:    -1,
		})
	}
	return sp
}

// slot returns name's phase-table slot, adding it in first-opened
// order, or overPhase once maxPhases names are taken. The caller holds
// t.mu.
//
//seq:hotpath
func (t *Tracer) slot(name string) int16 {
	for i := range t.phases {
		if t.phases[i].name == name {
			return int16(i)
		}
	}
	if len(t.phases) == maxPhases {
		return overPhase
	}
	//lint:ignore hotpathalloc the table grows once per new name, at most maxPhases times per query
	t.phases = append(t.phases, phase{name: name})
	return int16(len(t.phases) - 1)
}

// End closes the span at the current time. Ending a kept span twice
// keeps the first end and tables its time once; ending the zero Span is
// a no-op.
//
//seq:hotpath
func (s Span) End() {
	if s.t != nil {
		s.t.end(s, nil)
	}
}

// EndWork closes the span and attaches the work-counter delta performed
// inside it (per-subspace counters, not the query-wide running totals).
//
//seq:hotpath
func (s Span) EndWork(delta stats.Snapshot) {
	if s.t != nil {
		s.t.end(s, &delta)
	}
}

// end closes s and adds its self time to the phase table: its duration
// goes to its own name and comes off its parent's, so each name totals
// its spans' durations minus their child spans' durations.
//
//seq:hotpath
func (t *Tracer) end(s Span, work *stats.Snapshot) {
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.id != noID {
		n := &t.nodes[s.id]
		if n.endNS >= 0 {
			return
		}
		n.endNS = end
		if work != nil {
			n.work = *work
			n.hasWork = true
		}
	}
	d := end - s.startNS
	if s.under >= 0 {
		t.phases[s.under].ns -= d
	}
	switch {
	case s.phase >= 0:
		p := &t.phases[s.phase]
		if p.count == 0 {
			p.lane = s.worker
		} else if p.lane != s.worker {
			p.parallel = true
		}
		p.ns += d
		p.count++
	case s.phase == overPhase:
		t.phasesDropped++
	}
}

// Dropped reports how many spans the tree bounds discarded from the
// arena (spatialseq_spans_dropped_total). Their time is still in the
// phase table.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// PhasesDropped reports how many spans ended under a name past the
// phase table's bound (spatialseq_trace_phases_dropped_total).
func (t *Tracer) PhasesDropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phasesDropped
}
