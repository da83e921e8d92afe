// Package bench defines the machine-readable benchmark record model the
// evaluation harness emits (`seqbench -json`) and `benchdiff` consumes.
//
// A File is one benchmark session: an Env header pinning the machine,
// toolchain, git revision and workload configuration, plus one Record per
// (experiment, family, label, size, algorithm) measurement. Records carry
// nearest-rank latency percentiles, the engine's cumulative work counters
// (named by stats.Snapshot.Each, the single source of counter names), and
// per-run allocation deltas — everything a later `benchdiff` needs to
// decide whether a change made the system faster, slower, or wronger.
//
// The JSON schema is pinned by a golden-file test; renaming or removing a
// field is a breaking change to every committed BENCH_*.json artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"spatialseq/internal/stats"
	"spatialseq/internal/vectormath"
)

// SchemaVersion identifies the record layout. Bump it when a field
// changes meaning; benchdiff refuses to compare across versions.
// Version 2: the work map gained subspace_candidates_max (a max-semantics
// skew signal that WorkTotal excludes).
// Version 3: the work map gained subspaces_bounded (subspaces the
// best-first stop never prepared), and attr_sim_memo_hits/_misses count
// the eager memo on the sequential path too (misses: every cosine the
// eager fill computes; hits: every similarity a prep reads).
const SchemaVersion = 3

// Env pins the provenance of a benchmark session: where it ran and with
// which workload knobs. Two BENCH files are only meaningfully comparable
// when their Envs broadly agree; benchdiff prints both so a human can
// judge.
type Env struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GitSHA is the vcs revision baked into the binary, when available
	// ("+dirty" suffix for a modified working tree).
	GitSHA string `json:"git_sha,omitempty"`
	// CreatedAt is the session start in RFC 3339 UTC.
	CreatedAt string `json:"created_at,omitempty"`
	// Workload knobs (mirrors eval.Config).
	Seed     int64   `json:"seed"`
	Queries  int     `json:"queries"`
	BudgetMS float64 `json:"budget_ms"`
	Sizes    []int   `json:"sizes,omitempty"`
	M        int     `json:"m,omitempty"`
}

// CaptureEnv fills the host and toolchain fields; the caller sets the
// workload fields (seed, queries, budget, sizes, m).
func CaptureEnv() Env {
	e := Env{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			rev += "+dirty"
		}
		e.GitSHA = rev
	}
	return e
}

// Latency summarizes per-query wall time in milliseconds. The percentiles
// are nearest-rank (vectormath.Percentiles), so each is an actual sample
// value — a p99 of 12ms means some query really took 12ms.
type Latency struct {
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	MaxMS   float64 `json:"max_ms"`
	TotalMS float64 `json:"total_ms"`
}

// LatencyOf summarizes per-query latency samples (milliseconds) into the
// record's percentile fields. An empty sample yields a zero Latency.
func LatencyOf(samplesMS []float64) Latency {
	if len(samplesMS) == 0 {
		return Latency{}
	}
	p := vectormath.Percentiles(samplesMS, 50, 90, 99, 100)
	var total float64
	for _, s := range samplesMS {
		total += s
	}
	return Latency{
		MeanMS:  total / float64(len(samplesMS)),
		P50MS:   p[0],
		P90MS:   p[1],
		P99MS:   p[2],
		MaxMS:   p[3],
		TotalMS: total,
	}
}

// Mem holds per-run allocation deltas from runtime.ReadMemStats taken
// around the whole query loop (not per query — ReadMemStats stops the
// world). HeapDeltaBytes can be negative when a GC ran mid-measurement.
type Mem struct {
	AllocBytes     int64 `json:"alloc_bytes"`
	Mallocs        int64 `json:"mallocs"`
	HeapDeltaBytes int64 `json:"heap_delta_bytes"`
}

// ErrorStats mirrors the paper's LORA accuracy statistics (Tables II-III)
// for records where an exact reference run was available.
type ErrorStats struct {
	MAE float64 `json:"mae"`
	STD float64 `json:"std"`
	MAX float64 `json:"max"`
}

// Record is one measurement: one algorithm over one query set.
type Record struct {
	// Experiment is the driver id ("table2", "fig9-alpha", ...).
	Experiment string `json:"experiment"`
	// Family is the corpus family ("Yelp"/"Gaode"), when applicable.
	Family string `json:"family,omitempty"`
	// Label distinguishes rows within an experiment: a sweep point
	// ("alpha=0.5", "D=4"), an ablation variant ("whole-space"), or
	// empty for plain size-scaling rows.
	Label string `json:"label,omitempty"`
	// Size is the dataset size (#POIs), when applicable.
	Size int `json:"size,omitempty"`
	// Algorithm is the core.Algorithm name ("hsp", "lora", "dfs-prune").
	Algorithm string `json:"algorithm"`
	// Queries is the number of queries attempted; Completed how many
	// finished before the budget expired or an error aborted the run.
	Queries   int  `json:"queries"`
	Completed int  `json:"completed"`
	TimedOut  bool `json:"timed_out,omitempty"`
	// Error is set when the run aborted on an engine error — a distinct
	// condition from budget expiry (TimedOut).
	Error   string      `json:"error,omitempty"`
	AvgSim  float64     `json:"avg_sim"`
	Errors  *ErrorStats `json:"error_stats,omitempty"`
	Latency Latency     `json:"latency"`
	// Work holds the engine's cumulative counters over all completed
	// queries, keyed by the snake_case names of stats.Snapshot.Each.
	Work map[string]int64 `json:"work,omitempty"`
	// Gauges holds derived float metrics that are not work counters —
	// e.g. the skew experiment's worker imbalance ratios. Additive and
	// optional, so it needs no schema bump; benchdiff compares gauges
	// only when a series carries them on both sides.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	Mem    Mem                `json:"mem"`
}

// Key identifies a record's series for cross-file matching.
func (r Record) Key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%s", r.Experiment, r.Family, r.Label, r.Size, r.Algorithm)
}

// String renders the key for humans: experiment/family/label/size/algo
// with empty parts elided.
func (r Record) String() string {
	s := r.Experiment
	if r.Family != "" {
		s += "/" + r.Family
	}
	if r.Label != "" {
		s += "/" + r.Label
	}
	if r.Size > 0 {
		s += fmt.Sprintf("/%d", r.Size)
	}
	return s + "/" + r.Algorithm
}

// WorkMap converts a counter snapshot into the record's work map, using
// stats.Snapshot.Each as the single source of counter names.
func WorkMap(s stats.Snapshot) map[string]int64 {
	m := make(map[string]int64, 10)
	s.Each(func(name string, v int64) { m[name] = v })
	return m
}

// WorkTotal sums a record's work counters — the scalar benchdiff gates
// on. Counters are deterministic for a fixed seed, so any drift is a real
// behavior change, not noise. Cache-telemetry counters (the
// "attr_sim_memo_" prefix) are excluded: memo hits measure cosines
// *avoided*, not enumeration performed, and folding them in would report
// phantom work against baselines recorded before the memo existed.
// subspace_candidates_max is excluded for the same reason in a different
// shape: it is a max over subspaces, not a sum of work, and its value is
// already contained in the candidates counter.
func WorkTotal(m map[string]int64) int64 {
	var t int64
	for name, v := range m {
		if strings.HasPrefix(name, "attr_sim_memo_") || name == "subspace_candidates_max" {
			continue
		}
		t += v
	}
	return t
}

// File is one benchmark session: header plus records.
type File struct {
	SchemaVersion int      `json:"schema_version"`
	Env           Env      `json:"env"`
	Records       []Record `json:"records"`
}

// Write marshals the file as indented JSON with a trailing newline. Field
// order follows struct declaration and map keys marshal sorted, so output
// is byte-stable for equal inputs.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// WriteFile writes the session to path (0644, truncating).
func WriteFile(path string, f *File) (err error) {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	return f.Write(out)
}

// Read parses a session written by Write and checks the schema version.
func Read(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("bench: parse: %w", err)
	}
	if f.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: schema version %d, this build reads %d", f.SchemaVersion, SchemaVersion)
	}
	return &f, nil
}

// ReadFile reads a session from path.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		// read-path close: the decode already succeeded or failed
		_ = in.Close()
	}()
	f, err := Read(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Recorder collects records during a benchmark session. The zero value
// is unusable; build one with NewRecorder. A nil *Recorder is a no-op
// sink, so drivers call Add unconditionally.
type Recorder struct {
	mu   sync.Mutex
	env  Env
	recs []Record
}

// NewRecorder starts a session with the given header.
func NewRecorder(env Env) *Recorder {
	return &Recorder{env: env}
}

// Add appends one record. Safe on a nil receiver and for concurrent use.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// Len reports how many records were added. Nil-safe.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.recs)
}

// File snapshots the session for writing.
func (r *Recorder) File() *File {
	f := &File{SchemaVersion: SchemaVersion}
	if r == nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f.Env = r.env
	f.Records = append([]Record(nil), r.recs...)
	return f
}
