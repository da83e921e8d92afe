package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"spatialseq/internal/geo"
	"spatialseq/internal/obs"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

// retainAll returns a recorder whose 1ns floor makes every query slow,
// so captures are always retained.
func retainAll() *flight.Recorder {
	return flight.New(flight.Config{Floor: time.Nanosecond, KeepSlowest: 8})
}

func TestSearchEmitsFlightRecord(t *testing.T) {
	eng, q := setup(t, 150)
	rec := retainAll()
	eng.SetFlightRecorder(rec)
	ctx := obs.WithRequestID(context.Background(), "test-req-1")
	res, err := eng.Search(ctx, q, HSP, Options{CollectStats: true, Spans: span.NewTracer()})
	if err != nil {
		t.Fatal(err)
	}
	recent := rec.Recent(1)
	if len(recent) != 1 {
		t.Fatalf("recorder holds %d records, want 1", len(recent))
	}
	r := recent[0]
	if r.RequestID != "test-req-1" {
		t.Errorf("RequestID = %q", r.RequestID)
	}
	if r.Outcome != flight.OutcomeOK || r.CacheHit {
		t.Errorf("outcome = %q cache_hit = %v", r.Outcome, r.CacheHit)
	}
	if r.Algorithm != "hsp" || r.Variant != q.Variant.String() {
		t.Errorf("fingerprint = %s/%s", r.Algorithm, r.Variant)
	}
	if int(r.M) != q.Example.M() || int(r.K) != q.Params.K {
		t.Errorf("m=%d k=%d, want m=%d k=%d", r.M, r.K, q.Example.M(), q.Params.K)
	}
	if r.Work != res.Stats {
		t.Errorf("record work %+v != result stats %+v", r.Work, res.Stats)
	}
	if len(r.Phases) == 0 {
		t.Error("record carries no phase timings despite an attached tracer")
	}
	if r.LatencyNS != int64(res.Elapsed) {
		t.Errorf("latency %d != elapsed %d", r.LatencyNS, int64(res.Elapsed))
	}
	if r.Capture == nil {
		t.Fatal("slow record carries no capture payload")
	}
	if r.Capture.Algorithm != "hsp" || len(r.Capture.Dims) != q.Example.M() {
		t.Errorf("capture = %+v", r.Capture)
	}
}

// TestTruncatedSpansKeepFlatPhases: the phase table is exact past the
// span tree's node bound. The same query under a tracer bounded to 8
// nodes and under an unbounded one yields the same phase names and
// counts, in PhaseTimings and in the flight record alike; only the unit
// phases are compared in parallel, where the threshold race moves the
// number of point enumerations. Sequentially the phases sum to no more
// than the elapsed time, and with every span kept they sum to the
// search root's children exactly: no nanosecond is counted twice.
func TestTruncatedSpansKeepFlatPhases(t *testing.T) {
	eng, q := setup(t, 300)
	rec := retainAll()
	eng.SetFlightRecorder(rec)
	units := map[string]bool{"hsp.candidates": true, "hsp.dfs": true, "lora.sample": true, "lora.enum": true}
	for _, algo := range []Algorithm{DFSPrune, HSP, LORA} {
		for _, par := range []int{1, 2} {
			if algo == DFSPrune && par > 1 {
				continue // the baseline has no parallel path
			}
			var names [2]string
			var full *span.Tracer
			for i, spans := range []*span.Tracer{span.NewTracerLimits(8, 0), span.NewTracerLimits(1<<20, 64)} {
				opt := Options{Spans: spans}
				opt.HSP.Parallelism = par
				opt.LORA.Parallelism = par
				qq := *q
				res, err := eng.Search(context.Background(), &qq, algo, opt)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 && algo != DFSPrune && spans.Dropped() == 0 {
					t.Fatalf("%v par=%d: the search fit in 8 spans; want a truncated tree", algo, par)
				}
				phases := spans.PhaseTimings()
				if got := rec.Recent(1)[0].Phases; !reflect.DeepEqual(got, phases) {
					t.Errorf("%v par=%d: record phases %+v, want PhaseTimings' %+v", algo, par, got, phases)
				}
				for _, p := range phases {
					if par == 1 || units[p.Name] {
						names[i] += fmt.Sprintf("%s×%d ", p.Name, p.Count)
					}
				}
				if par == 1 && phaseSumNS(phases) > int64(res.Elapsed) {
					t.Errorf("%v: phases sum to %dns, more than the elapsed %v", algo, phaseSumNS(phases), res.Elapsed)
				}
				full = spans
			}
			if names[0] != names[1] || names[0] == "" {
				t.Errorf("%v par=%d: truncated tree's phases %q, unbounded tree's %q", algo, par, names[0], names[1])
			}
			if tree := full.Snapshot(); tree.Dropped != 0 {
				t.Fatalf("%v: the unbounded tracer dropped %d spans", algo, tree.Dropped)
			} else if par == 1 {
				var children int64
				for _, n := range tree.Nodes {
					if n.Parent == 0 {
						children += n.DurNS()
					}
				}
				if sum := phaseSumNS(full.PhaseTimings()); sum != children {
					t.Errorf("%v: phases sum to %dns, the root's children span %dns", algo, sum, children)
				}
			}
		}
	}
}

func TestSearchEmitsErrorAndTimeoutRecords(t *testing.T) {
	eng, q := setup(t, 150)
	rec := retainAll()
	eng.SetFlightRecorder(rec)
	if _, err := eng.Search(context.Background(), q, Algorithm(99), Options{}); err == nil {
		t.Fatal("unsupported algorithm succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Search(ctx, q, HSP, Options{}); err == nil {
		t.Fatal("canceled search succeeded")
	}
	recent := rec.Recent(2)
	if len(recent) != 2 {
		t.Fatalf("recorder holds %d records, want 2", len(recent))
	}
	// Newest first: the timeout, then the unsupported-algorithm error.
	if recent[0].Outcome != flight.OutcomeTimeout {
		t.Errorf("canceled search outcome = %q, want timeout", recent[0].Outcome)
	}
	if recent[1].Outcome != flight.OutcomeError {
		t.Errorf("failed search outcome = %q, want error", recent[1].Outcome)
	}
}

func TestSearchWithoutRecorder(t *testing.T) {
	eng, q := setup(t, 150)
	if eng.FlightRecorder() != nil {
		t.Fatal("fresh engine has a recorder attached")
	}
	if _, err := eng.Search(context.Background(), q, HSP, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCaptureQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ds := testutil.RandDataset(rng, 150, 3, 4, 100)
	q := testutil.RandQuery(rng, ds, 3, 25, query.Params{K: 5, Alpha: 0.5, Beta: 1.5, GridD: 4, Xi: 10})
	q.Variant = query.CSEQFP
	q.Example.Fixed = []query.FixedPoint{{Dim: 1, Obj: 7}}
	c := CaptureQuery(ds, q, HSP)
	if c == nil {
		t.Fatal("capturable query yielded nil")
	}
	if c.Variant != "CSEQ-FP" || c.Algorithm != "hsp" || c.K != q.Params.K {
		t.Errorf("capture header = %+v", c)
	}
	if len(c.Dims) != q.Example.M() {
		t.Fatalf("capture has %d dims, want %d", len(c.Dims), q.Example.M())
	}
	if c.Dims[1].FixedID == nil || *c.Dims[1].FixedID != ds.Object(7).ID {
		t.Errorf("pinned dim = %+v, want object ID %d", c.Dims[1], ds.Object(7).ID)
	}
	if c.Dims[0].Category != ds.CategoryName(q.Example.Categories[0]) {
		t.Errorf("dim 0 category = %q", c.Dims[0].Category)
	}
	// The capture clones attrs: mutating the query afterwards must not
	// reach into the retained payload.
	orig := c.Dims[0].Attrs[0]
	q.Example.Attrs[0][0] = orig + 1000
	if c.Dims[0].Attrs[0] != orig {
		t.Error("capture aliases the query's attr slice")
	}

	q.Example.Metric = dominating{}
	if CaptureQuery(ds, q, HSP) != nil {
		t.Error("query with a custom metric captured (no canonical encoding exists)")
	}
}

// dominating is a trivial custom metric for the non-capturable case.
type dominating struct{}

func (dominating) Dist(a, b geo.Point) float64 { return 2 * a.Dist(b) }
func (dominating) DominatesEuclidean() bool    { return true }
