package core

import (
	"context"
	"math"
	"testing"
	"time"

	"spatialseq/internal/obs"
	"spatialseq/internal/obs/span"
)

// TestSearchTracePhases checks that each algorithm reports phase
// timings and that, on the sequential path, the phases are disjoint
// slices of the elapsed wall time.
func TestSearchTracePhases(t *testing.T) {
	eng, q := setup(t, 300)
	ctx := context.Background()

	wantPhases := map[Algorithm][]string{
		DFSPrune: {"validate", "dfs.candidates", "dfs.search", "topk.merge"},
		HSP:      {"validate", "hsp.partition", "hsp.candidates", "hsp.dfs", "topk.merge"},
		LORA:     {"validate", "lora.partition", "lora.sample", "lora.enum", "lora.points", "topk.merge"},
	}
	for algo, want := range wantPhases {
		tr := span.NewTracer()
		qq := *q
		res, err := eng.Search(ctx, &qq, algo, Options{CollectStats: true, Spans: tr})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		snap := tr.PhaseTimings()
		got := make(map[string]obs.PhaseTiming, len(snap))
		for _, p := range snap {
			got[p.Name] = p
			if p.DurationMS < 0 {
				t.Errorf("%v: phase %s has negative duration %g", algo, p.Name, p.DurationMS)
			}
			if p.Parallel {
				t.Errorf("%v: sequential phase %s marked parallel", algo, p.Name)
			}
		}
		for _, name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%v: phase %q missing from trace %v", algo, name, snap)
			}
		}
		if sum := phaseSumNS(snap); sum > int64(res.Elapsed) {
			t.Errorf("%v: phase sum %v exceeds elapsed %v", algo, time.Duration(sum), res.Elapsed)
		}
	}
}

// phaseSumNS sums the phases' durations in whole nanoseconds, the unit
// the tracer adds them in.
func phaseSumNS(phases []obs.PhaseTiming) int64 {
	var sum int64
	for _, p := range phases {
		sum += int64(math.Round(p.DurationMS * float64(time.Millisecond)))
	}
	return sum
}

// TestSearchWithoutTrace confirms the nil-trace path records nothing
// and costs no correctness.
func TestSearchWithoutTrace(t *testing.T) {
	eng, q := setup(t, 100)
	res, err := eng.Search(context.Background(), q, HSP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) == 0 {
		t.Error("expected results")
	}
}
