package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"spatialseq/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden schema file")

// goldenFile builds a fully-populated session with fixed values: the
// golden test pins the JSON schema (field names, nesting, ordering), so
// adding/renaming/removing a field must show up as a diff here.
func goldenFile() *File {
	work := stats.Snapshot{
		Subspaces:             4,
		SubspacesSkipped:      1,
		Candidates:            1200,
		PrunedPrefixes:        300,
		Tuples:                80,
		Offered:               12,
		CellTuples:            40,
		PrunedCellPrefixes:    9,
		RankPops:              25,
		SampledOut:            110,
		AttrSimMemoHits:       640,
		AttrSimMemoMisses:     60,
		SubspaceCandidatesMax: 700,
	}
	return &File{
		SchemaVersion: SchemaVersion,
		Env: Env{
			GoVersion: "go1.22.0",
			GOOS:      "linux",
			GOARCH:    "amd64",
			NumCPU:    8,
			GitSHA:    "deadbeef",
			CreatedAt: "2026-01-02T03:04:05Z",
			Seed:      1,
			Queries:   20,
			BudgetMS:  30000,
			Sizes:     []int{1000, 5000},
			M:         3,
		},
		Records: []Record{
			{
				Experiment: "table2",
				Family:     "Gaode",
				Size:       1000,
				Algorithm:  "lora",
				Queries:    20,
				Completed:  20,
				AvgSim:     0.912345,
				Errors:     &ErrorStats{MAE: 0.0012, STD: 0.0034, MAX: 0.02},
				Latency:    LatencyOf([]float64{1, 2, 3, 4, 100}),
				Work:       WorkMap(work),
				Mem:        Mem{AllocBytes: 123456, Mallocs: 789, HeapDeltaBytes: -42},
			},
			{
				Experiment: "fig9-alpha",
				Family:     "Yelp",
				Label:      "alpha=0.5",
				Size:       5000,
				Algorithm:  "dfs-prune",
				Queries:    20,
				Completed:  3,
				TimedOut:   true,
				AvgSim:     0.77,
				Latency:    LatencyOf([]float64{9000, 9500, 11000}),
				Mem:        Mem{AllocBytes: 1 << 30, Mallocs: 1 << 20, HeapDeltaBytes: 1 << 10},
			},
			{
				Experiment: "table3",
				Family:     "Yelp",
				Size:       1000,
				Algorithm:  "hsp",
				Queries:    20,
				Error:      "query: k must be >= 1, got 0",
			},
		},
	}
}

func TestGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenFile().Write(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_bench.json")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("BENCH schema drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(if intentional, bump SchemaVersion and rerun with -update)", buf.Bytes(), want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	f := goldenFile()
	if err := WriteFile(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(f.Records) {
		t.Fatalf("round trip lost records: %d != %d", len(got.Records), len(f.Records))
	}
	if got.Records[0].Key() != f.Records[0].Key() {
		t.Errorf("key drift: %q != %q", got.Records[0].Key(), f.Records[0].Key())
	}
	if got.Records[0].Work["candidates"] != 1200 {
		t.Errorf("work counter lost: %v", got.Records[0].Work)
	}
	if got.Env.GitSHA != "deadbeef" {
		t.Errorf("env lost: %+v", got.Env)
	}
}

func TestReadRejectsWrongSchemaVersion(t *testing.T) {
	_, err := Read(strings.NewReader(`{"schema_version": 99, "env": {}, "records": []}`))
	if err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Errorf("want schema version error, got %v", err)
	}
}

func TestLatencyOf(t *testing.T) {
	l := LatencyOf([]float64{1, 2, 3, 4, 100})
	if l.P50MS != 3 || l.P90MS != 100 || l.P99MS != 100 || l.MaxMS != 100 {
		t.Errorf("percentiles: %+v", l)
	}
	if l.TotalMS != 110 || l.MeanMS != 22 {
		t.Errorf("mean/total: %+v", l)
	}
	if z := LatencyOf(nil); z != (Latency{}) {
		t.Errorf("empty sample: %+v", z)
	}
}

func TestWorkMapCoversEveryCounter(t *testing.T) {
	m := WorkMap(stats.Snapshot{})
	if len(m) != 14 {
		t.Errorf("WorkMap has %d keys, want 14 (schema stability: zero counters stay present)", len(m))
	}
	if _, ok := m["candidates"]; !ok {
		t.Error("WorkMap missing candidates")
	}
	if WorkTotal(map[string]int64{"a": 2, "b": 3}) != 5 {
		t.Error("WorkTotal broken")
	}
	// cache telemetry must not count as work: hits measure cosines avoided
	if got := WorkTotal(map[string]int64{"candidates": 10, "attr_sim_memo_hits": 500, "attr_sim_memo_misses": 50}); got != 10 {
		t.Errorf("WorkTotal with memo counters = %d, want 10", got)
	}
	// Max-semantics counters are not work either: the max is a subset of
	// the candidates sum and would double-count.
	if got := WorkTotal(map[string]int64{"candidates": 10, "subspace_candidates_max": 7}); got != 10 {
		t.Errorf("WorkTotal with subspace max = %d, want 10", got)
	}
}

func TestRecorderNilSafeAndConcurrent(t *testing.T) {
	var nilRec *Recorder
	nilRec.Add(Record{Experiment: "x"})
	if nilRec.Len() != 0 {
		t.Error("nil recorder should drop records")
	}
	if f := nilRec.File(); len(f.Records) != 0 || f.SchemaVersion != SchemaVersion {
		t.Errorf("nil recorder file: %+v", f)
	}

	rec := NewRecorder(Env{Seed: 7})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				rec.Add(Record{Experiment: "stress"})
			}
		}()
	}
	wg.Wait()
	if rec.Len() != 800 {
		t.Errorf("Len = %d, want 800", rec.Len())
	}
	f := rec.File()
	if f.Env.Seed != 7 || len(f.Records) != 800 {
		t.Errorf("File: env %+v, %d records", f.Env, len(f.Records))
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Experiment: "table2", Family: "Gaode", Size: 1000, Algorithm: "lora"}
	if got := r.String(); got != "table2/Gaode/1000/lora" {
		t.Errorf("String = %q", got)
	}
	r2 := Record{Experiment: "ablation-bounds", Label: "loose", Algorithm: "hsp"}
	if got := r2.String(); got != "ablation-bounds/loose/hsp" {
		t.Errorf("String = %q", got)
	}
}
