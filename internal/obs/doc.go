// Package obs is the repository's stdlib-only telemetry subsystem: the
// operational companion to the per-search work counters of
// internal/stats. It provides the facilities that together answer "why
// was this query slow" in production:
//
//   - a concurrent metrics Registry (counters, gauges, fixed-bucket
//     histograms, all with label support) that renders the Prometheus
//     text exposition format for a /metrics endpoint;
//   - PhaseTiming, the served shape of a per-phase time aggregate. The
//     one timing instrument, the span tracer in the obs/span
//     subpackage, produces it from its exact per-phase table;
//   - structured JSON request logging helpers over log/slog, with
//     generated request IDs carried through contexts.
//
// Like internal/stats, obs is a leaf package: it imports nothing from
// this module (enforced by the seqlint layering policy), so every layer
// can depend on it without ever seeing the server.
package obs
