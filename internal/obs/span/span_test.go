package span

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"spatialseq/internal/stats"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	root := tr.Root("search")
	sub := root.Worker("w", 0).Subspace("s", 1).Child("c")
	sub.End()
	sub.EndWork(stats.Snapshot{Candidates: 5})
	if tr.Snapshot() != nil {
		t.Error("nil tracer snapshot should be nil")
	}
	if tr.PhaseTimings() != nil {
		t.Error("nil tracer phase timings should be nil")
	}
	if tr.Skew() != nil {
		t.Error("nil tracer skew should be nil")
	}
	if tr.Dropped() != 0 {
		t.Error("nil tracer dropped should be 0")
	}
	var nilTree *Tree
	if nilTree.Skew() != nil {
		t.Error("nil tree skew should be nil")
	}
}

// TestZeroAllocWhenOff pins the cost of disabled tracing: the zero Span
// threaded through every algorithm hot path must emit nothing.
func TestZeroAllocWhenOff(t *testing.T) {
	var tr *Tracer
	delta := stats.Snapshot{Candidates: 1}
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.Root("search")
		ws := root.Worker("w", 3)
		sub := ws.Subspace("s", 7)
		c := sub.Child("leaf")
		c.End()
		sub.EndWork(delta)
		ws.End()
		root.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v times per emission, want 0", allocs)
	}
}

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	ws := root.Worker("worker", 2)
	sub := ws.Subspace("subspace", 5)
	sub.EndWork(stats.Snapshot{Candidates: 42, Subspaces: 1})
	ws.End()
	root.End()

	tree := tr.Snapshot()
	if tree == nil || len(tree.Nodes) != 3 {
		t.Fatalf("want 3 nodes, got %+v", tree)
	}
	r, w, s := tree.Nodes[0], tree.Nodes[1], tree.Nodes[2]
	if r.Parent != -1 || w.Parent != 0 || s.Parent != 1 {
		t.Errorf("parent links wrong: %d %d %d", r.Parent, w.Parent, s.Parent)
	}
	if r.Worker != -1 || w.Worker != 2 || s.Worker != 2 {
		t.Errorf("worker lanes wrong (children must inherit): %d %d %d", r.Worker, w.Worker, s.Worker)
	}
	if s.Subspace != 5 || r.Subspace != -1 {
		t.Errorf("subspace tags wrong: %d %d", s.Subspace, r.Subspace)
	}
	if s.Work == nil || s.Work.Candidates != 42 {
		t.Errorf("work delta lost: %+v", s.Work)
	}
	if r.Work != nil {
		t.Errorf("plain End attached work: %+v", r.Work)
	}
	// Nesting: each child starts no earlier than its parent and — parents
	// ended after children here — ends no later.
	for _, pair := range [][2]Node{{r, w}, {w, s}} {
		p, c := pair[0], pair[1]
		if c.StartNS < p.StartNS || c.EndNS > p.EndNS {
			t.Errorf("child [%d,%d] escapes parent [%d,%d]", c.StartNS, c.EndNS, p.StartNS, p.EndNS)
		}
	}
}

// TestConcurrentWorkersNest exercises the arena under -race: parallel
// worker goroutines each record a lane of nested spans; afterwards every
// worker's spans must nest inside its lane and, per worker, start times
// must be monotone in emission order.
func TestConcurrentWorkersNest(t *testing.T) {
	const workers, subspacesPer = 8, 10
	tr := NewTracer()
	root := tr.Root("search")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := root.Worker("worker", w)
			defer ws.End()
			for i := 0; i < subspacesPer; i++ {
				sub := ws.Subspace("subspace", w*subspacesPer+i)
				sub.EndWork(stats.Snapshot{Subspaces: 1})
			}
		}(w)
	}
	wg.Wait()
	root.End()

	tree := tr.Snapshot()
	if want := 1 + workers*(1+subspacesPer); len(tree.Nodes) != want {
		t.Fatalf("want %d nodes, got %d (dropped %d)", want, len(tree.Nodes), tree.Dropped)
	}
	lastStart := make(map[int32]int64)
	for i, n := range tree.Nodes {
		if n.EndNS < n.StartNS {
			t.Errorf("node %d %q ends before it starts: [%d,%d]", i, n.Name, n.StartNS, n.EndNS)
		}
		if n.Parent >= 0 {
			p := tree.Nodes[n.Parent]
			if n.StartNS < p.StartNS || n.EndNS > p.EndNS {
				t.Errorf("node %d %q [%d,%d] escapes parent %q [%d,%d]",
					i, n.Name, n.StartNS, n.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
		if n.Worker >= 0 {
			// Arena order preserves each goroutine's emission order, so a
			// lane's start offsets never go backwards.
			if s, ok := lastStart[n.Worker]; ok && n.StartNS < s {
				t.Errorf("worker %d start went backwards: %d after %d", n.Worker, n.StartNS, s)
			}
			lastStart[n.Worker] = n.StartNS
		}
	}
	if got := len(lastStart); got != workers {
		t.Errorf("want %d worker lanes, got %d", workers, got)
	}
	if sk := tr.Skew(); sk == nil || sk.Workers != workers || !sk.Parallel {
		t.Errorf("skew report wrong: %+v", sk)
	}
}

func TestTreeBounds(t *testing.T) {
	tr := NewTracerLimits(3, 2)
	root := tr.Root("search") // depth 0, kept
	a := root.Child("a")      // depth 1, kept
	b := a.Child("b")         // depth 2 >= maxDepth, dropped
	c := b.Child("c")         // child of dropped, dropped
	c.End()
	b.End()
	d := root.Child("d") // depth 1, kept: arena full now
	e := root.Child("e") // node bound reached, dropped
	e.End()
	d.End()
	a.End()
	root.End()
	if got := tr.Dropped(); got != 3 {
		t.Errorf("dropped %d spans, want 3 (depth, child-of-dropped, node cap)", got)
	}
	tree := tr.Snapshot()
	if len(tree.Nodes) != 3 || tree.Dropped != 3 {
		t.Errorf("snapshot has %d nodes, dropped %d; want 3 and 3", len(tree.Nodes), tree.Dropped)
	}
	// The dropped spans' time is missing from the tree, so it yields no
	// phases and callers fall back to the flat trace.
	if p := tr.PhaseTimings(); p != nil {
		t.Errorf("truncated tree derived phases %+v, want nil", p)
	}
}

func TestSnapshotClampsOpenSpans(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	_ = root.Child("open") // never ended
	tree := tr.Snapshot()
	for _, n := range tree.Nodes {
		if n.EndNS < n.StartNS {
			t.Errorf("open span %q not clamped: [%d,%d]", n.Name, n.StartNS, n.EndNS)
		}
	}
}

func TestEndKeepsFirst(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	root.End()
	first := tr.Snapshot().Nodes[0].EndNS
	time.Sleep(time.Millisecond)
	root.End()
	root.EndWork(stats.Snapshot{Candidates: 9})
	n := tr.Snapshot().Nodes[0]
	if n.EndNS != first {
		t.Errorf("second End moved the timestamp: %d != %d", n.EndNS, first)
	}
	if n.Work != nil {
		t.Error("EndWork after End attached work")
	}
}

// TestPhaseTimingsParallelMarker is the satellite fix for the obs.Trace
// caveat: overlapping same-named leaves get Parallel=true, disjoint ones
// stay unmarked, and container spans do not become phases.
func TestPhaseTimingsParallelMarker(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	// Two overlapping "dfs" leaves on different lanes: the second opens
	// before the first ends, so the intervals must overlap.
	w0 := root.Worker("worker", 0)
	w1 := root.Worker("worker", 1)
	d0 := w0.Subspace("dfs", 0)
	d1 := w1.Subspace("dfs", 1)
	d0.End()
	d1.End()
	w0.End()
	w1.End()
	// A sequential phase: open and close before the next starts.
	m := root.Child("merge")
	m.End()
	root.End()

	phases := tr.PhaseTimings()
	if len(phases) != 2 {
		t.Fatalf("want 2 phases (dfs, merge), got %+v", phases)
	}
	if phases[0].Name != "dfs" || !phases[0].Parallel || phases[0].Count != 2 {
		t.Errorf("dfs phase wrong: %+v", phases[0])
	}
	if phases[1].Name != "merge" || phases[1].Parallel || phases[1].Count != 1 {
		t.Errorf("merge phase wrong: %+v", phases[1])
	}
	for _, p := range phases {
		if p.Name == "search" || p.Name == "worker" {
			t.Errorf("container span %q leaked into phases", p.Name)
		}
	}
}

func TestSkewAttribution(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	w0 := root.Worker("worker", 0)
	s0 := w0.Subspace("subspace", 3)
	time.Sleep(20 * time.Millisecond) // the straggler lane
	s0.End()
	w0.End()
	w1 := root.Worker("worker", 1)
	s1 := w1.Subspace("subspace", 4)
	time.Sleep(time.Millisecond)
	s1.End()
	w1.End()
	root.End()

	sk := tr.Skew()
	if sk == nil {
		t.Fatal("no skew report")
	}
	if sk.Workers != 2 || !sk.Parallel {
		t.Errorf("workers: %+v", sk)
	}
	if sk.ImbalanceRatio <= 1.2 {
		t.Errorf("imbalance %.2f, want > 1.2 for a 20ms-vs-1ms split", sk.ImbalanceRatio)
	}
	if sk.StragglerWorker != 0 || sk.StragglerSubspace != 3 {
		t.Errorf("straggler attribution wrong: worker %d subspace %d", sk.StragglerWorker, sk.StragglerSubspace)
	}
	if sk.MaxWorkerMS < sk.MeanWorkerMS {
		t.Errorf("max %.3f < mean %.3f", sk.MaxWorkerMS, sk.MeanWorkerMS)
	}
	if sk.CriticalPathMS <= 0 || sk.CriticalPathMS > sk.SpanMS+0.001 {
		t.Errorf("critical path %.3f outside (0, span %.3f]", sk.CriticalPathMS, sk.SpanMS)
	}
	// No worker spans -> no report.
	plain := NewTracer()
	r := plain.Root("search")
	c := r.Child("validate")
	c.End()
	r.End()
	if plain.Skew() != nil {
		t.Error("skew report without worker spans")
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	ws := root.Worker("worker", 0)
	sub := ws.Subspace("subspace", 2)
	sub.EndWork(stats.Snapshot{Candidates: 7})
	ws.End()
	root.End()

	data, err := tr.Snapshot().ChromeTrace()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", out.DisplayTimeUnit)
	}
	var x, m int
	subspaceTagged := false
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
			if ev.Pid != 1 || ev.Ts <= 0 {
				t.Errorf("bad X event: %+v", ev)
			}
			if ev.Name == "subspace" {
				if ev.Tid != 1 {
					t.Errorf("subspace span on tid %d, want worker 0 = tid 1", ev.Tid)
				}
				if _, ok := ev.Args["subspace"]; ok {
					subspaceTagged = true
				}
			}
		case "M":
			m++
			if ev.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if x != 3 || m != 2 {
		t.Errorf("got %d X and %d M events, want 3 and 2", x, m)
	}
	if !subspaceTagged {
		t.Error("subspace span lost its subspace arg")
	}

	if _, err := (&Tree{}).ChromeTrace(); err == nil {
		t.Error("empty tree produced a trace")
	}
	var nilTree *Tree
	if _, err := nilTree.ChromeTrace(); err == nil {
		t.Error("nil tree produced a trace")
	}
}
