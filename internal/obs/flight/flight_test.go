package flight

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialseq/internal/obs/span"
	"spatialseq/internal/stats"
	"spatialseq/internal/vectormath"
)

// rec builds a record ending at start+lat (both in arbitrary ns).
func mkRec(seqHint int, start, lat int64) Record {
	return Record{
		RequestID: "req",
		Start:     start,
		LatencyNS: lat,
		Algorithm: "hsp",
		Variant:   "CSEQ",
		M:         3,
		K:         int32(seqHint),
		Outcome:   OutcomeOK,
	}
}

func TestFind(t *testing.T) {
	r := New(Config{Floor: time.Nanosecond})
	a := mkRec(1, 10, 100)
	a.RequestID = "alpha"
	r.Observe(&a)

	tr := span.NewTracer()
	root := tr.Root("search")
	root.End()
	b := mkRec(2, 20, 50)
	b.RequestID = "dup"
	b.Spans = tr.Snapshot()
	r.Observe(&b)
	c := mkRec(3, 30, 60) // reused ID, newer, but no span tree
	c.RequestID = "dup"
	r.Observe(&c)

	got, ok := r.Find("alpha")
	if !ok || got.RequestID != "alpha" {
		t.Errorf("Find(alpha) = %+v, %v", got, ok)
	}
	got, ok = r.Find("dup")
	if !ok || got.Spans == nil {
		t.Errorf("Find(dup) should prefer the span-carrying record, got Spans=%v", got.Spans)
	}
	if _, ok := r.Find("missing"); ok {
		t.Error("Find(missing) returned a record")
	}
	if _, ok := r.Find(""); ok {
		t.Error("Find of empty ID returned a record")
	}

	// Same ID, neither with spans: the most recent record wins.
	d := mkRec(4, 40, 10)
	d.RequestID = "twice"
	r.Observe(&d)
	e := mkRec(5, 50, 10)
	e.RequestID = "twice"
	r.Observe(&e)
	if got, ok := r.Find("twice"); !ok || got.Seq != e.Seq {
		t.Errorf("Find(twice) = seq %d, want the newer %d", got.Seq, e.Seq)
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing(4)
	for i := 1; i <= 10; i++ {
		rec := mkRec(i, int64(i), 1)
		r.put(&rec)
	}
	got := r.recent(10)
	if len(got) != 4 {
		t.Fatalf("recent returned %d records, want 4", len(got))
	}
	for i, rec := range got {
		wantSeq := uint64(10 - i) // newest first
		if rec.Seq != wantSeq {
			t.Errorf("recent[%d].Seq = %d, want %d", i, rec.Seq, wantSeq)
		}
	}
	if got := r.recent(2); len(got) != 2 || got[0].Seq != 10 || got[1].Seq != 9 {
		t.Errorf("recent(2) = %v", got)
	}
}

func TestRingDisabled(t *testing.T) {
	r := New(Config{RingSize: -1})
	rec := mkRec(1, 0, 1)
	r.Observe(&rec)
	if got := r.Recent(10); len(got) != 0 {
		t.Errorf("disabled ring returned %d records", len(got))
	}
	if r.Observed() != 1 {
		t.Errorf("Observed = %d, want 1 (tail sampling still runs)", r.Observed())
	}
}

func TestTailSamplingRetention(t *testing.T) {
	r := New(Config{KeepSlowest: 3, Window: time.Minute})
	for i := 1; i <= 10; i++ {
		rec := mkRec(i, int64(i), int64(i)*int64(time.Millisecond))
		r.Observe(&rec)
	}
	slow := r.Slowest()
	if len(slow) != 3 {
		t.Fatalf("Slowest returned %d records, want 3", len(slow))
	}
	for i, want := range []int64{10, 9, 8} {
		if got := slow[i].LatencyNS / int64(time.Millisecond); got != want {
			t.Errorf("Slowest[%d] latency = %dms, want %dms", i, got, want)
		}
	}
}

func TestWindowRotation(t *testing.T) {
	w := int64(time.Minute)
	r := New(Config{KeepSlowest: 4, Window: time.Minute})
	// Window 1: two records.
	r1 := mkRec(1, 0, 100)
	r2 := mkRec(2, 50, 100)
	r.Observe(&r1)
	r.Observe(&r2)
	// Just past the window end: normal rotation, window 1 becomes "prev".
	r3 := mkRec(3, w+100, 200)
	r.Observe(&r3)
	if got := len(r.Slowest()); got != 3 {
		t.Fatalf("after one rotation Slowest holds %d records, want 3 (cur+prev)", got)
	}
	// An idle gap of several windows: everything retained is stale.
	r4 := mkRec(4, 10*w, 300)
	r.Observe(&r4)
	slow := r.Slowest()
	if len(slow) != 1 || slow[0].LatencyNS != 300 {
		t.Fatalf("after idle gap Slowest = %+v, want just the new record", slow)
	}
}

func TestThresholdColdAndFloor(t *testing.T) {
	r := New(Config{})
	if _, ok := r.Threshold(); ok {
		t.Error("cold recorder with no floor reports an engaged threshold")
	}
	rec := mkRec(1, 0, int64(time.Second))
	if r.Observe(&rec) {
		t.Error("record counted slow while no threshold is engaged")
	}

	rf := New(Config{Floor: 10 * time.Millisecond})
	thr, ok := rf.Threshold()
	if !ok || thr != 10*time.Millisecond {
		t.Errorf("floor threshold = (%v, %v), want (10ms, true)", thr, ok)
	}
	fast := mkRec(1, 0, int64(5*time.Millisecond))
	slow := mkRec(2, 100, int64(20*time.Millisecond))
	if rf.Observe(&fast) {
		t.Error("5ms counted slow against a 10ms floor")
	}
	if !rf.Observe(&slow) {
		t.Error("20ms not counted slow against a 10ms floor")
	}
	if rf.SlowCount() != 1 {
		t.Errorf("SlowCount = %d, want 1", rf.SlowCount())
	}
}

func TestAdaptiveThresholdEngages(t *testing.T) {
	r := New(Config{Warmup: 64})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		rec := mkRec(i, int64(i)*1000, int64(1+rng.Intn(1000))*int64(time.Microsecond))
		r.Observe(&rec)
	}
	thr, ok := r.Threshold()
	if !ok {
		t.Fatal("threshold not engaged after 200 observations with warmup 64")
	}
	p99, ok := r.P99()
	if !ok {
		t.Fatal("no p99 estimate after 200 observations")
	}
	if thr != p99 {
		t.Errorf("with no floor, threshold %v should equal the p99 estimate %v", thr, p99)
	}
	if p99 < 500*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Errorf("p99 estimate %v implausible for latencies uniform in [1us, 1000us]", p99)
	}
}

// TestQuantileConvergence checks the streaming p99 against the exact
// nearest-rank percentile (vectormath.Percentiles) on a seeded sample.
func TestQuantileConvergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*rand.Rand) float64
		tol  float64 // relative error bound
	}{
		{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 1e6 }, 0.05},
		{"exponential", func(r *rand.Rand) float64 { return r.ExpFloat64() * 1e5 }, 0.15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			q := newQuantile(0.99)
			xs := make([]float64, 0, 5000)
			for i := 0; i < 5000; i++ {
				x := tc.gen(rng)
				xs = append(xs, x)
				q.add(x)
			}
			want := vectormath.Percentiles(xs, 99)[0]
			got, ok := q.estimate()
			if !ok {
				t.Fatal("no estimate after 5000 samples")
			}
			if rel := (got - want) / want; rel > tc.tol || rel < -tc.tol {
				t.Errorf("streaming p99 = %g, exact = %g (relative error %.3f > %.2f)", got, want, rel, tc.tol)
			}
		})
	}
}

func TestQuantileSmallSample(t *testing.T) {
	q := newQuantile(0.99)
	if _, ok := q.estimate(); ok {
		t.Error("estimate reported ok with no samples")
	}
	q.add(30)
	q.add(10)
	q.add(20)
	got, ok := q.estimate()
	if !ok {
		t.Fatal("no estimate with 3 samples")
	}
	// Nearest-rank p99 of {10,20,30} is the maximum.
	if got != 30 {
		t.Errorf("small-sample p99 = %g, want 30", got)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	r := New(Config{})
	rec := mkRec(1, 0, int64(time.Millisecond))
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(&rec)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", allocs)
	}
}

func TestObserveAndLogZeroAllocWhenFast(t *testing.T) {
	// The always-on emission path for unremarkable queries (the cache-hit
	// fast path) must not allocate even through the logging wrapper: the
	// record stays under the floor, so the logging branch is never taken.
	var buf bytes.Buffer
	r := New(Config{Floor: time.Second, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	rec := mkRec(1, 0, int64(time.Millisecond))
	allocs := testing.AllocsPerRun(1000, func() {
		r.ObserveAndLog(&rec)
	})
	if allocs != 0 {
		t.Errorf("ObserveAndLog allocates %v times per fast call, want 0", allocs)
	}
	if buf.Len() != 0 {
		t.Errorf("unexpected slow-query log output: %s", buf.String())
	}
}

func TestSlowQueryLogLine(t *testing.T) {
	var buf bytes.Buffer
	r := New(Config{Floor: time.Millisecond, Logger: slog.New(slog.NewJSONHandler(&buf, nil))})
	rec := mkRec(1, 0, int64(50*time.Millisecond))
	if !r.ObserveAndLog(&rec) {
		t.Fatal("50ms record not slow against a 1ms floor")
	}
	line := buf.String()
	if !strings.Contains(line, "slow query") {
		t.Fatalf("no slow-query line emitted: %q", line)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(line), &parsed); err != nil {
		t.Fatalf("slow-query line is not one JSON object: %v", err)
	}
	for _, key := range []string{"id", "latency_ms", "threshold_ms", "algorithm", "outcome"} {
		if _, ok := parsed[key]; !ok {
			t.Errorf("slow-query line missing %q: %s", key, line)
		}
	}
}

func TestWouldRetain(t *testing.T) {
	r := New(Config{KeepSlowest: 2, Window: time.Minute})
	if !r.WouldRetain(time.Microsecond) {
		t.Error("empty heap should accept anything")
	}
	a := mkRec(1, 0, int64(100*time.Millisecond))
	b := mkRec(2, 10, int64(200*time.Millisecond))
	r.Observe(&a)
	r.Observe(&b)
	if r.WouldRetain(time.Millisecond) {
		t.Error("1ms retained although the full heap's minimum is 100ms and no threshold is engaged")
	}
	if !r.WouldRetain(150 * time.Millisecond) {
		t.Error("150ms not retained although it beats the heap minimum")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := New(Config{RingSize: 32, KeepSlowest: 8, Window: time.Minute, Floor: time.Millisecond})
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers exercise every read path against the writers.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Recent(16)
					r.Slowest()
					r.Threshold()
					r.P99()
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				rec := mkRec(i, int64(i)*100, int64(rng.Intn(1_000_000)))
				r.Observe(&rec)
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if got := r.Observed(); got != writers*perWriter {
		t.Errorf("Observed = %d, want %d", got, writers*perWriter)
	}
	if got := len(r.Recent(64)); got != 32 {
		t.Errorf("Recent returned %d records from a full 32-slot ring", got)
	}
}

func TestCaptureFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "capture.json")
	id := int64(99)
	cf := CaptureFile{
		Schema:  CaptureSchemaVersion,
		Dataset: DatasetInfo{Kind: "synth", Family: "gaode", N: 2000, Seed: 1},
		Records: []Record{
			{
				Seq: 7, RequestID: "abc",
				LatencyNS: 123456, Algorithm: "hsp", Variant: "CSEQ",
				M: 2, K: 3, Outcome: OutcomeOK,
				Work: stats.Snapshot{},
				Capture: &Capture{
					Variant: "CSEQ", Algorithm: "hsp", K: 3, Alpha: 0.5, Beta: 5,
					Dims: []CapturedDim{
						{X: 1, Y: 2, Category: "cafe", Attrs: []float64{0.1}},
						{X: 3, Y: 4, Category: "gym", Attrs: []float64{0.2}, FixedID: &id},
					},
				},
			},
		},
	}
	if err := WriteCaptureFile(path, cf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCaptureFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dataset != cf.Dataset {
		t.Errorf("dataset round-trip: got %+v, want %+v", got.Dataset, cf.Dataset)
	}
	if len(got.Records) != 1 || got.Records[0].Capture == nil {
		t.Fatalf("records round-trip: %+v", got.Records)
	}
	rc := got.Records[0].Capture
	if rc.Dims[1].FixedID == nil || *rc.Dims[1].FixedID != 99 {
		t.Errorf("FixedID round-trip: %+v", rc.Dims[1])
	}
}

func TestReadCaptureFileRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cf CaptureFile) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := WriteCaptureFile(p, cf); err != nil {
			t.Fatal(err)
		}
		return p
	}
	badSchema := write("schema.json", CaptureFile{Schema: CaptureSchemaVersion + 1, Dataset: DatasetInfo{Kind: "file", Path: "x"}})
	if _, err := ReadCaptureFile(badSchema); err == nil {
		t.Error("foreign schema version accepted")
	}
	badKind := write("kind.json", CaptureFile{Schema: CaptureSchemaVersion, Dataset: DatasetInfo{Kind: "cloud"}})
	if _, err := ReadCaptureFile(badKind); err == nil {
		t.Error("unknown dataset kind accepted")
	}
	badSynth := write("synth.json", CaptureFile{Schema: CaptureSchemaVersion, Dataset: DatasetInfo{Kind: "synth", Family: "gaode"}})
	if _, err := ReadCaptureFile(badSynth); err == nil {
		t.Error("synth provenance without n accepted")
	}
}

func TestRecorderCaptureFile(t *testing.T) {
	info := DatasetInfo{Kind: "synth", Family: "yelp", N: 500, Seed: 3}
	r := New(Config{KeepSlowest: 4, Window: time.Minute, Dataset: info})
	withCap := mkRec(1, 0, int64(100*time.Millisecond))
	withCap.Capture = &Capture{Variant: "CSEQ", Algorithm: "hsp", K: 3}
	without := mkRec(2, 10, int64(200*time.Millisecond))
	r.Observe(&withCap)
	r.Observe(&without)
	cf := r.CaptureFile()
	if cf.Schema != CaptureSchemaVersion || cf.Dataset != info {
		t.Errorf("capture header = %+v", cf)
	}
	if len(cf.Records) != 1 || cf.Records[0].Capture == nil {
		t.Fatalf("CaptureFile kept %d records, want exactly the one with a payload", len(cf.Records))
	}
}
