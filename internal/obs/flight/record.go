// Package flight is the query flight recorder: always-on, bounded-
// overhead per-query forensics for the search service. Where the metrics
// registry answers "how is the fleet doing" in aggregate, the flight
// recorder answers "which query was slow and why" after the fact — the
// database-style query log of a serving system.
//
// One structured Record is captured per completed query: the request ID,
// the CSEQ shape fingerprint (m, dims, pins, k, algorithm), cache
// hit/miss, outcome, total latency, the exact per-phase times from the
// span tracer, and the work-counter snapshot from internal/stats. Records
// land in a fixed-size lock-cheap ring buffer ("everything recent") and
// in a tail-sampler that always retains the slowest N per time window
// ("everything worth keeping"). A streaming-quantile p99 tracker drives
// the adaptive slow-query threshold; queries crossing it additionally
// emit one structured slow-query log line.
//
// Slow queries optionally carry a Capture: the full query specification
// in a dataset-independent encoding (category names, object IDs) that,
// together with the dataset provenance stamped into a CaptureFile, turns
// a production slow query into a deterministic offline reproduction
// (`seqbench -exp replay`) whose work counters must match the recorded
// ones exactly.
//
// Like obs and stats, flight sits on the leaf band of the layer policy:
// it imports only those, plus the sibling obs/span leaf (retained span
// trees), so the engine and the server can both feed it and a capture
// file stays loadable without either.
package flight

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"spatialseq/internal/obs"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/stats"
)

// Outcome classifies how a query finished.
const (
	// OutcomeOK is a successful search.
	OutcomeOK = "ok"
	// OutcomeError is an engine failure (validation, unsupported
	// algorithm, internal error).
	OutcomeError = "error"
	// OutcomeTimeout is a context expiry (deadline or cancellation).
	OutcomeTimeout = "timeout"
)

// Record is one completed query, as retained by the recorder. All
// fields are plain values so a Record can be copied into and out of the
// ring buffer without allocation.
type Record struct {
	// Seq is the recorder-assigned emission sequence number (1-based).
	Seq uint64 `json:"seq"`
	// RequestID correlates the record with request logs ("" for
	// non-HTTP callers such as benchmarks).
	RequestID string `json:"request_id,omitempty"`
	// Start is the query start time in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// LatencyNS is the total query latency in nanoseconds.
	LatencyNS int64 `json:"latency_ns"`

	// The CSEQ shape fingerprint: enough to see what kind of query this
	// was without the full capture payload.
	Algorithm string `json:"algorithm"`
	Variant   string `json:"variant"`
	// M is the example tuple size.
	M int32 `json:"m"`
	// Dims is the attribute dimensionality.
	Dims int32 `json:"dims"`
	// Pins is the number of CSEQ-FP fixed points.
	Pins int32 `json:"pins"`
	K    int32 `json:"k"`

	// CacheHit marks a query answered from the result cache (the engine
	// did not run; Work then describes the original execution).
	CacheHit bool `json:"cache_hit"`
	// Outcome is OutcomeOK, OutcomeError or OutcomeTimeout.
	Outcome string `json:"outcome"`

	// Work is the engine's per-search counter snapshot.
	Work stats.Snapshot `json:"work"`
	// Phases is the per-phase wall-time breakdown (nil on cache hits:
	// no engine ran).
	Phases []obs.PhaseTiming `json:"phases,omitempty"`
	// Capture is the replayable query payload, attached only to queries
	// the recorder decided to retain as slow (nil otherwise).
	Capture *Capture `json:"capture,omitempty"`
	// Spans is the hierarchical span tree of the execution, attached —
	// like Capture — only to queries retained as slow (WouldRetain gates
	// the snapshot allocation). It backs GET /debug/trace/{requestID}.
	Spans *span.Tree `json:"spans,omitempty"`
	// Skew is the per-query imbalance attribution derived from the span
	// tree; nil when the query recorded no worker spans.
	Skew *span.SkewReport `json:"skew,omitempty"`
}

// End returns the query end time in Unix nanoseconds — the instant the
// recorder's tail-sampling windows rotate on.
func (r *Record) End() int64 { return r.Start + r.LatencyNS }

// LatencyMS returns the latency in milliseconds (for human-facing
// rendering; the canonical field is LatencyNS).
func (r *Record) LatencyMS() float64 { return float64(r.LatencyNS) / 1e6 }

// Capture is the dataset-independent encoding of one query — everything
// a replay needs to rebuild a query.Query against a dataset loaded from
// the same provenance. Categories are referenced by name and pinned
// objects by their stable dataset ID, never by position, so the payload
// survives serialization across processes.
type Capture struct {
	Variant   string  `json:"variant"`
	Algorithm string  `json:"algorithm"`
	K         int     `json:"k"`
	Alpha     float64 `json:"alpha"`
	Beta      float64 `json:"beta"`
	GridD     int     `json:"grid_d"`
	Xi        int     `json:"xi"`
	// Dims is the example tuple, one entry per dimension.
	Dims []CapturedDim `json:"dims"`
	// SkipPairs lists distance pairs excluded from the similarity.
	SkipPairs [][2]int `json:"skip_pairs,omitempty"`
}

// CapturedDim is one example dimension of a captured query.
type CapturedDim struct {
	X        float64   `json:"x"`
	Y        float64   `json:"y"`
	Category string    `json:"category"`
	Attrs    []float64 `json:"attrs"`
	// FixedID pins this dimension to the dataset object with this ID
	// (CSEQ-FP); nil leaves it free.
	FixedID *int64 `json:"fixed_id,omitempty"`
}

// DatasetInfo records where the dataset a query ran against came from,
// so a replay can rebuild it bit-for-bit.
type DatasetInfo struct {
	// Kind is "synth" (regenerate from family, n and seed) or "file"
	// (reload from Path).
	Kind string `json:"kind"`
	// Family is the synthetic family ("yelp" or "gaode") when Kind is
	// "synth".
	Family string `json:"family,omitempty"`
	// N is the synthetic dataset size when Kind is "synth".
	N int `json:"n,omitempty"`
	// Seed is the synthetic dataset seed when Kind is "synth".
	Seed int64 `json:"seed,omitempty"`
	// Path is the dataset file when Kind is "file".
	Path string `json:"path,omitempty"`
}

// CaptureSchemaVersion identifies the capture-file layout. Bump it when
// a field changes meaning; replay refuses other versions. Version 2:
// Record.Work gained the max-semantics subspace_candidates_max counter,
// which participates in replay's exact work equality.
const CaptureSchemaVersion = 2

// CaptureFile is the export format of the flight recorder: dataset
// provenance plus the retained records. Records without a Capture are
// context only; replay skips them.
type CaptureFile struct {
	Schema  int         `json:"schema"`
	Dataset DatasetInfo `json:"dataset"`
	Records []Record    `json:"records"`
}

// WriteCaptureFile writes cf as indented JSON to path.
func WriteCaptureFile(path string, cf CaptureFile) error {
	data, err := json.MarshalIndent(cf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCaptureFile loads and validates a capture file.
func ReadCaptureFile(path string) (CaptureFile, error) {
	var cf CaptureFile
	data, err := os.ReadFile(path)
	if err != nil {
		return cf, err
	}
	if err := json.Unmarshal(data, &cf); err != nil {
		return cf, fmt.Errorf("flight: parsing capture file %s: %w", path, err)
	}
	if cf.Schema != CaptureSchemaVersion {
		return cf, fmt.Errorf("flight: capture file %s has schema %d, want %d", path, cf.Schema, CaptureSchemaVersion)
	}
	switch cf.Dataset.Kind {
	case "synth":
		if cf.Dataset.Family == "" || cf.Dataset.N <= 0 {
			return cf, errors.New("flight: synth dataset provenance needs family and n")
		}
	case "file":
		if cf.Dataset.Path == "" {
			return cf, errors.New("flight: file dataset provenance needs path")
		}
	default:
		return cf, fmt.Errorf("flight: unknown dataset kind %q", cf.Dataset.Kind)
	}
	return cf, nil
}
