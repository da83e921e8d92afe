package obs

// PhaseTiming is one search phase's aggregate, in the shape the search
// API returns to clients and flight records carry. The span tracer
// (internal/obs/span) produces it from its per-phase table.
type PhaseTiming struct {
	// Name identifies the phase (e.g. "validate", "hsp.dfs").
	Name string `json:"name"`
	// DurationMS is the phase's accumulated self time in milliseconds:
	// its spans' wall time less the time of the spans nested in them.
	DurationMS float64 `json:"duration_ms"`
	// Count is how many spans of the phase ended.
	Count int64 `json:"count"`
	// Parallel marks a phase recorded on more than one worker lane:
	// DurationMS then sums time across workers and may exceed the
	// query's wall time.
	Parallel bool `json:"parallel,omitempty"`
}
