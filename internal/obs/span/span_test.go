package span

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"spatialseq/internal/obs"
	"spatialseq/internal/stats"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	root := tr.Root("search")
	sub := root.Unit("s", 0, 1).Child("c")
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

// TestNilTracerPhaseTableIsSafe checks the phase table's side of a nil
// tracer: spans and tallies opened and ended on it record nothing, and
// the table reads as empty with nothing dropped.
func TestNilTracerPhaseTableIsSafe(t *testing.T) {
	var tr *Tracer
	root := tr.Root("search")
	root.Tally("x").End()
	u := root.Unit("y", 0, 0)
	u.Tally("z").End()
	u.End()
	root.End()
	if p := tr.PhaseTimings(); p != nil {
		t.Errorf("nil tracer phase timings = %v", p)
	}
	if d := tr.PhasesDropped(); d != 0 {
		t.Errorf("nil tracer phases dropped = %d", d)
	}
}

// TestZeroAllocWhenOff pins the cost of disabled tracing: the zero Span
// threaded through every algorithm hot path must emit nothing.
func TestZeroAllocWhenOff(t *testing.T) {
	var tr *Tracer
	delta := stats.Snapshot{Candidates: 1}
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.Root("search")
		sub := root.Unit("s", 3, 7)
		c := sub.Child("leaf")
		sub.Tally("tally").End()
		c.End()
		sub.EndWork(delta)
		root.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v times per emission, want 0", allocs)
	}
}

// TestZeroAllocPastNodeBound pins the cost of enabled tracing once the
// arena is full: a span that takes no node is still timed into the
// phase table, and opening and ending it allocates nothing.
func TestZeroAllocPastNodeBound(t *testing.T) {
	tr := NewTracerLimits(2, 0)
	root := tr.Root("search")
	root.Child("fill").End()
	delta := stats.Snapshot{Candidates: 1}
	allocs := testing.AllocsPerRun(100, func() {
		sub := root.Unit("s", 3, 7)
		c := sub.Child("leaf")
		sub.Tally("tally").End()
		c.End()
		sub.EndWork(delta)
	})
	if allocs != 0 {
		t.Errorf("tracing past the node bound allocates %v times per emission, want 0", allocs)
	}
	if n := len(tr.Snapshot().Nodes); n != 2 {
		t.Errorf("arena grew to %d nodes past its bound of 2", n)
	}
	if p := phaseByName(tr.PhaseTimings(), "s"); p.Count != 101 {
		t.Errorf("unit phase counted %d times, want 101", p.Count)
	}
}

func TestSpanTreeShape(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	s := root.Unit("subspace", 2, 5)
	leaf := s.Child("leaf")
	leaf.End()
	s.EndWork(stats.Snapshot{Candidates: 42, Subspaces: 1})
	root.End()

	tree := tr.Snapshot()
	if tree == nil || len(tree.Nodes) != 3 {
		t.Fatalf("want 3 nodes, got %+v", tree)
	}
	r, u, l := tree.Nodes[0], tree.Nodes[1], tree.Nodes[2]
	if r.Parent != -1 || u.Parent != 0 || l.Parent != 1 {
		t.Errorf("parent links wrong: %d %d %d", r.Parent, u.Parent, l.Parent)
	}
	if r.Worker != -1 || u.Worker != 2 || l.Worker != 2 {
		t.Errorf("worker lanes wrong (children must inherit): %d %d %d", r.Worker, u.Worker, l.Worker)
	}
	if u.Subspace != 5 || r.Subspace != -1 || l.Subspace != -1 {
		t.Errorf("subspace tags wrong: %d %d %d", u.Subspace, r.Subspace, l.Subspace)
	}
	if u.Work == nil || u.Work.Candidates != 42 {
		t.Errorf("work delta lost: %+v", u.Work)
	}
	if r.Work != nil || l.Work != nil {
		t.Errorf("plain End attached work: %+v %+v", r.Work, l.Work)
	}
	// Nesting: each child starts no earlier than its parent and — parents
	// ended after children here — ends no later.
	for _, pair := range [][2]Node{{r, u}, {u, l}} {
		p, c := pair[0], pair[1]
		if c.StartNS < p.StartNS || c.EndNS > p.EndNS {
			t.Errorf("child [%d,%d] escapes parent [%d,%d]", c.StartNS, c.EndNS, p.StartNS, p.EndNS)
		}
	}
}

// TestConcurrentWorkersNest exercises the arena under -race: parallel
// worker goroutines each record a lane of units with a nested child;
// afterwards every span must nest inside its parent and, per worker,
// start times must be monotone in emission order.
func TestConcurrentWorkersNest(t *testing.T) {
	const workers, subspacesPer = 8, 10
	tr := NewTracer()
	root := tr.Root("search")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < subspacesPer; i++ {
				sub := root.Unit("subspace", w, w*subspacesPer+i)
				sub.Child("leaf").End()
				sub.EndWork(stats.Snapshot{Subspaces: 1})
			}
		}(w)
	}
	wg.Wait()
	root.End()

	tree := tr.Snapshot()
	if want := 1 + workers*subspacesPer*2; len(tree.Nodes) != want {
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
	time.Sleep(time.Millisecond)
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
	// The dropped spans keep their time in the phase table: every name
	// is counted once, and a's self time plus its dropped descendants'
	// comes to a's extent exactly.
	phases := tr.PhaseTimings()
	var names []string
	for _, p := range phases {
		names = append(names, p.Name)
		if p.Count != 1 {
			t.Errorf("phase %s counted %d times, want 1", p.Name, p.Count)
		}
	}
	if fmt.Sprint(names) != "[a b c d e]" {
		t.Errorf("phases %v, want [a b c d e]", names)
	}
	sum := phaseNS(phases, "a") + phaseNS(phases, "b") + phaseNS(phases, "c")
	if want := tree.Nodes[1].DurNS(); sum != want {
		t.Errorf("a+b+c phases sum to %dns, want a's extent %dns", sum, want)
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
	c := root.Child("c")
	c.End()
	root.End()
	first := tr.Snapshot().Nodes[0].EndNS
	phase := tr.PhaseTimings()
	time.Sleep(time.Millisecond)
	root.End()
	root.EndWork(stats.Snapshot{Candidates: 9})
	c.End()
	c.EndWork(stats.Snapshot{Candidates: 9})
	n := tr.Snapshot().Nodes[0]
	if n.EndNS != first {
		t.Errorf("second End moved the timestamp: %d != %d", n.EndNS, first)
	}
	if n.Work != nil {
		t.Error("EndWork after End attached work")
	}
	// A kept span ended twice counts into the phase table once.
	if got := tr.PhaseTimings(); len(got) != 1 || got[0] != phase[0] || got[0].Count != 1 {
		t.Errorf("phases after a second end %+v, want %+v", got, phase)
	}
}

// TestPhaseTimingsParallelMarker: a phase recorded on more than one
// worker lane gets Parallel=true, a phase on one lane (however many
// spans) stays unmarked, and roots do not become phases.
func TestPhaseTimingsParallelMarker(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	// "dfs" units on two lanes; "prep" units twice on lane 0 only.
	for i := 0; i < 2; i++ {
		root.Unit("prep", 0, i).End()
	}
	d0 := root.Unit("dfs", 0, 0)
	d1 := root.Unit("dfs", 1, 1)
	d0.End()
	d1.End()
	// A sequential phase off the worker lanes.
	m := root.Child("merge")
	m.End()
	root.End()

	phases := tr.PhaseTimings()
	if len(phases) != 3 {
		t.Fatalf("want 3 phases (prep, dfs, merge), got %+v", phases)
	}
	if phases[0].Name != "prep" || phases[0].Parallel || phases[0].Count != 2 {
		t.Errorf("prep phase wrong: %+v", phases[0])
	}
	if phases[1].Name != "dfs" || !phases[1].Parallel || phases[1].Count != 2 {
		t.Errorf("dfs phase wrong: %+v", phases[1])
	}
	if phases[2].Name != "merge" || phases[2].Parallel || phases[2].Count != 1 {
		t.Errorf("merge phase wrong: %+v", phases[2])
	}
	for _, p := range phases {
		if p.Name == "search" {
			t.Errorf("root span %q leaked into phases", p.Name)
		}
	}
}

// TestPhaseTimingsAggregateByName: spans of one name add up, in
// first-opened order, each to exactly its tree extent when it has no
// children.
func TestPhaseTimingsAggregateByName(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	root.Child("dfs").End()
	root.Child("validate").End()
	root.Child("dfs").End()
	root.End()
	phases := tr.PhaseTimings()
	if len(phases) != 2 || phases[0].Name != "dfs" || phases[1].Name != "validate" {
		t.Fatalf("phases %+v, want dfs then validate", phases)
	}
	if phases[0].Count != 2 || phases[1].Count != 1 {
		t.Errorf("counts %d and %d, want 2 and 1", phases[0].Count, phases[1].Count)
	}
	nodes := tr.Snapshot().Nodes
	if got, want := phaseNS(phases, "dfs"), nodes[1].DurNS()+nodes[3].DurNS(); got != want {
		t.Errorf("dfs totals %dns, want its spans' %dns", got, want)
	}
	if got, want := phaseNS(phases, "validate"), nodes[2].DurNS(); got != want {
		t.Errorf("validate totals %dns, want %dns", got, want)
	}
}

// TestPhaseTimingsSelfTime: a span's phase is its duration less its
// children's, tallied children included, so nested phases never count
// the same nanosecond twice.
func TestPhaseTimingsSelfTime(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	u := root.Unit("enum", 0, 0)
	for i := 0; i < 3; i++ {
		p := u.Tally("points")
		time.Sleep(time.Millisecond)
		p.End()
	}
	c := u.Child("merge")
	c.End()
	u.End()
	root.End()
	tree := tr.Snapshot()
	if len(tree.Nodes) != 3 || tree.Dropped != 0 {
		t.Fatalf("tree has %d nodes, %d dropped; tallies must take no node and count as no drop",
			len(tree.Nodes), tree.Dropped)
	}
	phases := tr.PhaseTimings()
	if p := phaseByName(phases, "points"); p.Count != 3 || p.DurationMS < 2.5 {
		t.Errorf("points phase %+v, want 3 tallies of about 1ms", p)
	}
	if p := phaseByName(phases, "enum"); p.DurationMS >= phaseByName(phases, "points").DurationMS {
		t.Errorf("enum phase %+v includes its tallied children's time", p)
	}
	sum := phaseNS(phases, "enum") + phaseNS(phases, "points") + phaseNS(phases, "merge")
	if want := tree.Nodes[1].DurNS(); sum != want {
		t.Errorf("enum+points+merge sum to %dns, want enum's extent %dns", sum, want)
	}
}

func TestPhaseTimingsMeasureElapsed(t *testing.T) {
	tr := NewTracer()
	sp := tr.Root("search").Child("sleep")
	time.Sleep(5 * time.Millisecond)
	sp.End()
	if p := tr.PhaseTimings(); len(p) != 1 || p[0].DurationMS < 4 {
		t.Errorf("span recorded %+v, want >= ~5ms", p)
	}
}

// TestPhaseTableBound: the table keeps maxPhases names; spans ended
// under further names are counted, and kept names still accumulate.
func TestPhaseTableBound(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	for i := 0; i < maxPhases+10; i++ {
		root.Child(fmt.Sprintf("phase-%03d", i)).End()
	}
	if got := len(tr.PhaseTimings()); got != maxPhases {
		t.Errorf("kept %d phases, want %d", got, maxPhases)
	}
	if got := tr.PhasesDropped(); got != 10 {
		t.Errorf("phases dropped = %d, want 10", got)
	}
	root.Child("phase-000").End()
	if tr.PhaseTimings()[0].Count != 2 {
		t.Error("existing phase stopped accumulating at the bound")
	}
}

// TestPhaseTimingsConcurrent records one phase table from parallel
// workers, the shape of HSP/LORA's stealing search, far past the node
// bound: every span is counted, under -race.
func TestPhaseTimingsConcurrent(t *testing.T) {
	const workers, per = 8, 1000
	tr := NewTracer()
	root := tr.Root("search")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("phase%d", w%4)
			for i := 0; i < per; i++ {
				u := root.Unit("dfs", w, i)
				u.Tally(name).End()
				u.End()
				_ = tr.PhaseTimings()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	phases := tr.PhaseTimings()
	if p := phaseByName(phases, "dfs"); p.Count != workers*per || !p.Parallel {
		t.Errorf("dfs phase %+v, want %d spans on several lanes", p, workers*per)
	}
	for i := 0; i < 4; i++ {
		if p := phaseByName(phases, fmt.Sprintf("phase%d", i)); p.Count != 2*per {
			t.Errorf("phase%d counted %d, want %d", i, p.Count, 2*per)
		}
	}
	if tr.Dropped() == 0 {
		t.Error("the test should overflow the node bound")
	}
}

func phaseByName(phases []obs.PhaseTiming, name string) obs.PhaseTiming {
	for _, p := range phases {
		if p.Name == name {
			return p
		}
	}
	return obs.PhaseTiming{}
}

// phaseNS converts a phase's duration back to the nanoseconds it summed.
func phaseNS(phases []obs.PhaseTiming, name string) int64 {
	return int64(math.Round(phaseByName(phases, name).DurationMS * float64(time.Millisecond)))
}

func TestSkewAttribution(t *testing.T) {
	tr := NewTracer()
	root := tr.Root("search")
	s0 := root.Unit("subspace", 0, 3)
	time.Sleep(20 * time.Millisecond) // the straggler lane
	s0.End()
	s1 := root.Unit("subspace", 1, 4)
	time.Sleep(time.Millisecond)
	s1.End()
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
	sub := root.Unit("subspace", 0, 2)
	sub.Child("leaf").End()
	sub.EndWork(stats.Snapshot{Candidates: 7})
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
