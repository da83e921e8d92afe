package eval

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"spatialseq/internal/core"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

// buildCapture runs nq queries against a small Gaode-like corpus and
// returns a capture file as the flight recorder would export it.
func buildCapture(t *testing.T, nq int) flight.CaptureFile {
	t.Helper()
	const n, seed = 800, 5
	ds, err := synth.Generate(synth.GaodeLike(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.QueryCount = nq
	cfg.Seed = seed
	queries, err := workload.Generate(ds, familyWorkload(Gaode, cfg))
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ds)
	cf := flight.CaptureFile{
		Schema:  flight.CaptureSchemaVersion,
		Dataset: flight.DatasetInfo{Kind: "synth", Family: "gaode", N: n, Seed: seed},
	}
	for i, q := range queries {
		res, err := eng.Search(context.Background(), q, core.HSP, core.Options{CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		cf.Records = append(cf.Records, flight.Record{
			Seq:       uint64(i + 1),
			RequestID: "test",
			LatencyNS: int64(res.Elapsed),
			Algorithm: res.Algorithm.String(),
			Variant:   q.Variant.String(),
			M:         int32(q.Example.M()),
			K:         int32(q.Params.K),
			Outcome:   flight.OutcomeOK,
			Work:      res.Stats,
			Capture:   core.CaptureQuery(ds, q, res.Algorithm),
		})
	}
	return cf
}

func writeCapture(t *testing.T, cf flight.CaptureFile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "capture.json")
	if err := flight.WriteCaptureFile(path, cf); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayMatchesRecordedCounters(t *testing.T) {
	cf := buildCapture(t, 3)
	cfg := DefaultConfig()
	cfg.Capture = writeCapture(t, cf)
	var buf bytes.Buffer
	if err := Replay(context.Background(), &buf, cfg); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "replayed 3 queries, 0 work-counter mismatches") {
		t.Errorf("unexpected summary:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("mismatch row in output:\n%s", out)
	}
}

func TestReplayDetectsTamperedCounters(t *testing.T) {
	cf := buildCapture(t, 1)
	cf.Records[0].Work.Candidates += 7
	cfg := DefaultConfig()
	cfg.Capture = writeCapture(t, cf)
	var buf bytes.Buffer
	err := Replay(context.Background(), &buf, cfg)
	if err == nil {
		t.Fatalf("tampered capture replayed clean:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "MISMATCH") || !strings.Contains(buf.String(), "candidates") {
		t.Errorf("mismatch row should name the diverging counter:\n%s", buf.String())
	}
}

func TestReplayRejectsEmptyCapture(t *testing.T) {
	cf := buildCapture(t, 1)
	cf.Records[0].Capture = nil // context-only record
	cfg := DefaultConfig()
	cfg.Capture = writeCapture(t, cf)
	var buf bytes.Buffer
	if err := Replay(context.Background(), &buf, cfg); err == nil {
		t.Error("capture without replayable records accepted")
	}
	cfg.Capture = ""
	if err := Replay(context.Background(), &buf, cfg); err == nil {
		t.Error("missing -capture accepted")
	}
}
