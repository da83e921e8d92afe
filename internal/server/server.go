// Package server exposes the example-based search engine as a JSON HTTP
// API — the "map service" surface of the paper's Figure 2. The handler is
// stateless beyond the immutable engine, so it is safe for concurrent use.
//
// Endpoints:
//
//	GET  /healthz        liveness probe
//	GET  /stats          dataset summary (size, categories, bounds)
//	GET  /categories     category names and sizes
//	GET  /metrics        Prometheus text exposition of the server metrics
//	POST /search         run a query; see SearchRequest / SearchResponse
//	POST /snap           snap a map click to nearby objects
//	GET  /debug/queries  flight recorder: recent + slowest queries
//	                     (?format=html for a browsable page)
//	GET  /debug/queries/capture  replayable capture of retained slow
//	                     queries (feed to `seqbench -exp replay`)
//	GET  /debug/trace/{requestID}  retained span tree of a slow query as
//	                     Chrome trace-event JSON (chrome://tracing /
//	                     Perfetto loadable; ?format=html for a timeline)
//	GET  /debug/pprof/*  runtime profiles (only with Config.EnablePprof)
//
// Every request gets an X-Request-ID (a valid client-supplied one is
// honored, so records correlate with upstream logs) and a structured
// JSON log line (configure Config.Logger; the default discards logs).
// Metrics cover per-endpoint request/status counts, in-flight requests,
// per-algorithm search latency, cumulative engine work counters,
// query-cache state, process health, and the flight recorder's adaptive
// slow-query threshold.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/export"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/qcache"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
)

// Config tunes a Server. The zero value gives the defaults of New.
type Config struct {
	// Timeout bounds each search request (default 30s).
	Timeout time.Duration
	// CacheSize is the query-cache capacity in entries (<= 0 uses
	// qcache.DefaultSize).
	CacheSize int
	// Logger receives one structured record per request plus warnings.
	// Nil discards logs.
	Logger *slog.Logger
	// Metrics is the registry the server's metrics are registered in and
	// that GET /metrics renders. Nil creates a private registry.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Flight is the query flight recorder backing /debug/queries. Nil
	// builds a default recorder (256-slot ring, 1m window, slowest 16,
	// adaptive threshold) logging slow queries through Logger. The
	// recorder is attached to the engine, so engine-side emissions and
	// the server's cache-hit records land in one place.
	Flight *flight.Recorder
}

// Server handles the HTTP API for one engine.
type Server struct {
	eng *core.Engine
	// Timeout bounds each search request (default 30s).
	Timeout time.Duration
	cache   *qcache.Cache
	mux     *http.ServeMux
	logger  *slog.Logger
	reg     *obs.Registry
	flight  *flight.Recorder

	inflight      obs.Gauge
	requests      *obs.CounterVec
	latency       *obs.HistogramVec
	work          *obs.CounterVec
	phasesDropped obs.Counter
	spansDropped  obs.Counter
	imbalance     *obs.HistogramVec
	critPath      *obs.HistogramVec

	// idOnce guards the lazy one-time build of idIndex, the dataset's
	// id -> position map used to resolve CSEQ-FP fixed_id references.
	idOnce  sync.Once
	idIndex map[int64]int32
}

// New builds a Server around eng with the default configuration.
func New(eng *core.Engine) *Server {
	return NewWith(eng, Config{})
}

// NewWith builds a Server around eng with cfg.
func NewWith(eng *core.Engine, cfg Config) *Server {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Flight == nil {
		cfg.Flight = flight.New(flight.Config{Logger: cfg.Logger})
	}
	s := &Server{
		eng:     eng,
		Timeout: cfg.Timeout,
		cache:   qcache.New(cfg.CacheSize),
		mux:     http.NewServeMux(),
		logger:  cfg.Logger,
		reg:     cfg.Metrics,
		flight:  cfg.Flight,
	}
	// The engine emits the per-query flight records (outcome, phases,
	// work); the server adds the cache-hit records the engine never
	// sees. Attaching here means the last server built around an engine
	// owns its record stream.
	eng.SetFlightRecorder(cfg.Flight)
	obs.RegisterProcessMetrics(cfg.Metrics)
	s.inflight = cfg.Metrics.Gauge("spatialseq_http_in_flight_requests",
		"Requests currently being served.").With()
	s.requests = cfg.Metrics.Counter("spatialseq_http_requests_total",
		"Completed HTTP requests.", "endpoint", "code")
	s.latency = cfg.Metrics.Histogram("spatialseq_search_duration_seconds",
		"Engine search latency (cache hits excluded).", nil, "algorithm")
	s.work = cfg.Metrics.Counter("spatialseq_search_work_total",
		"Cumulative engine work counters, by stats.Snapshot field.", "counter")
	s.phasesDropped = cfg.Metrics.Counter("spatialseq_trace_phases_dropped_total",
		"Spans ended under a phase name past the span tracer's per-query bound of 64 names.").With()
	s.spansDropped = cfg.Metrics.Counter("spatialseq_spans_dropped_total",
		"Spans discarded by the per-query span-tree bounds (node count or depth).").With()
	s.imbalance = cfg.Metrics.Histogram("spatialseq_subspace_imbalance_ratio",
		"Per-query worker imbalance: max worker busy time over mean (1.0 is perfectly balanced).",
		[]float64{1, 1.1, 1.25, 1.5, 2, 3, 5, 10}, "algorithm")
	s.critPath = cfg.Metrics.Histogram("spatialseq_span_critical_path_seconds",
		"Per-query critical-path length from the span tree: the floor more parallelism cannot beat.",
		nil, "algorithm")
	rec := s.flight
	cfg.Metrics.GaugeFunc("spatialseq_slow_query_threshold_seconds",
		"Effective flight-recorder slow-query threshold (+Inf while the adaptive tracker warms up with no floor set).",
		func() float64 {
			thr, ok := rec.Threshold()
			if !ok {
				return math.Inf(1)
			}
			return thr.Seconds()
		})
	cfg.Metrics.GaugeFunc("spatialseq_query_latency_p99_seconds",
		"Streaming p99 query-latency estimate from the flight recorder.",
		func() float64 {
			p, ok := rec.P99()
			if !ok {
				return 0
			}
			return p.Seconds()
		})
	cfg.Metrics.GaugeFunc("spatialseq_flight_observed",
		"Queries recorded by the flight recorder since start.",
		func() float64 { return float64(rec.Observed()) })
	cfg.Metrics.GaugeFunc("spatialseq_flight_slow",
		"Queries that crossed the slow-query threshold since start.",
		func() float64 { return float64(rec.SlowCount()) })
	cache := s.cache
	cfg.Metrics.GaugeFunc("spatialseq_qcache_hits",
		"Query-cache hits since start.",
		func() float64 { return float64(cache.Metrics().Hits) })
	cfg.Metrics.GaugeFunc("spatialseq_qcache_misses",
		"Query-cache misses since start.",
		func() float64 { return float64(cache.Metrics().Misses) })
	cfg.Metrics.GaugeFunc("spatialseq_qcache_evictions",
		"Query-cache LRU evictions since start.",
		func() float64 { return float64(cache.Metrics().Evictions) })
	cfg.Metrics.GaugeFunc("spatialseq_qcache_entries",
		"Query-cache resident entries.",
		func() float64 { return float64(cache.Metrics().Len) })

	s.handle("/healthz", http.MethodGet, s.handleHealthz)
	s.handle("/stats", http.MethodGet, s.handleStats)
	s.handle("/categories", http.MethodGet, s.handleCategories)
	s.handle("/metrics", http.MethodGet, s.handleMetrics)
	s.handle("/search", http.MethodPost, s.handleSearch)
	s.handle("/snap", http.MethodPost, s.handleSnap)
	s.handle("/debug/queries", http.MethodGet, s.handleDebugQueries)
	s.handle("/debug/queries/capture", http.MethodGet, s.handleDebugCapture)
	s.handle("/debug/trace/", http.MethodGet, s.handleDebugTrace)
	if cfg.EnablePprof {
		// pprof handlers manage their own content types and streaming
		// (the CPU profile blocks for its sampling window), so they mount
		// raw rather than through the instrumentation wrapper.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// handle mounts h at pattern with the shared instrumentation: method
// enforcement (405 with an Allow header), request IDs, the in-flight
// gauge, per-endpoint status counters and the access log. A wellformed
// client-supplied X-Request-ID is propagated instead of minting one, so
// flight-recorder records and request logs correlate with the caller's
// own logs; malformed or oversized values are replaced, never echoed.
func (s *Server) handle(pattern, method string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		rec := &obs.ResponseRecorder{ResponseWriter: w, Status: http.StatusOK}
		s.inflight.Inc()
		if r.Method != method {
			w.Header().Set("Allow", method)
			s.writeJSON(rec, http.StatusMethodNotAllowed,
				errorResponse{Error: method + " required"})
		} else {
			h(rec, r.WithContext(obs.WithRequestID(r.Context(), id)))
		}
		s.inflight.Dec()
		s.requests.With(pattern, strconv.Itoa(rec.Status)).Inc()
		s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", pattern),
			slog.Int("status", rec.Status),
			slog.Int64("bytes", rec.Bytes),
			slog.Float64("duration_ms", float64(time.Since(start))/float64(time.Millisecond)))
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// ExampleObject is one dimension of the request example.
type ExampleObject struct {
	X        float64   `json:"x"`
	Y        float64   `json:"y"`
	Category string    `json:"category"`
	Attrs    []float64 `json:"attrs,omitempty"`
	// FixedID pins this dimension to the dataset object with this ID
	// (CSEQ-FP). Nil leaves the dimension free.
	FixedID *int64 `json:"fixed_id,omitempty"`
}

// SearchRequest is the /search request body.
type SearchRequest struct {
	Variant   string `json:"variant,omitempty"` // "cseq" (default), "seq", "cseq-fp"
	Algorithm string `json:"algorithm,omitempty"`
	// Format selects the response encoding: "" / "json" for
	// SearchResponse, "geojson" for an RFC 7946 FeatureCollection that a
	// map UI can render directly.
	Format string `json:"format,omitempty"`
	// IncludeStats attaches engine work counters and per-phase wall
	// times to the response (SearchResponse.Stats). Such requests bypass
	// the query cache so the timings describe this execution.
	IncludeStats bool            `json:"include_stats,omitempty"`
	K            int             `json:"k,omitempty"`
	Alpha        float64         `json:"alpha,omitempty"`
	Beta         float64         `json:"beta,omitempty"`
	GridD        int             `json:"grid_d,omitempty"`
	Xi           int             `json:"xi,omitempty"`
	Example      []ExampleObject `json:"example"`
}

// ResultObject is one matched object.
type ResultObject struct {
	ID       int64     `json:"id"`
	Name     string    `json:"name"`
	X        float64   `json:"x"`
	Y        float64   `json:"y"`
	Category string    `json:"category"`
	Attrs    []float64 `json:"attrs"`
}

// ResultTuple is one ranked answer.
type ResultTuple struct {
	Sim     float64        `json:"sim"`
	Objects []ResultObject `json:"objects"`
}

// SearchStats carries the optional observability payload of a response.
type SearchStats struct {
	// Work is the engine's per-search counter snapshot.
	Work stats.Snapshot `json:"work"`
	// Phases is the wall time spent per search phase, from the span
	// tracer's exact per-phase table: phases recorded on more than one
	// worker lane carry parallel=true (their durations sum time across
	// workers, not wall time); unmarked phases are disjoint wall-clock
	// slices.
	Phases []obs.PhaseTiming `json:"phases"`
	// Skew is the per-query imbalance attribution from the span tree;
	// absent when the query recorded no worker spans.
	Skew *span.SkewReport `json:"skew,omitempty"`
}

// SearchResponse is the /search response body.
type SearchResponse struct {
	Algorithm string        `json:"algorithm"`
	Variant   string        `json:"variant"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Results   []ResultTuple `json:"results"`
	// Stats is present when the request set include_stats.
	Stats *SearchStats `json:"stats,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if _, err := fmt.Fprintln(w, `{"status":"ok"}`); err != nil {
		s.logWriteErr(r.Context(), err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		s.logWriteErr(r.Context(), err)
	}
}

type statsResponse struct {
	Objects    int        `json:"objects"`
	Categories int        `json:"categories"`
	AttrDim    int        `json:"attr_dim"`
	Bounds     [4]float64 `json:"bounds"` // minx, miny, maxx, maxy
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ds := s.eng.Dataset()
	b := ds.Bounds()
	s.writeJSON(w, http.StatusOK, statsResponse{
		Objects:    ds.Len(),
		Categories: ds.NumCategories(),
		AttrDim:    ds.AttrDim(),
		Bounds:     [4]float64{b.MinX, b.MinY, b.MaxX, b.MaxY},
	})
}

// CategoryInfo describes one category for example-building clients.
type CategoryInfo struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

func (s *Server) handleCategories(w http.ResponseWriter, r *http.Request) {
	ds := s.eng.Dataset()
	out := make([]CategoryInfo, 0, ds.NumCategories())
	for c, size := range ds.CategorySizes() {
		out = append(out, CategoryInfo{Name: ds.CategoryName(dataset.CategoryID(c)), Count: size})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// decodeStrict decodes a request body into dst, rejecting unknown fields
// and trailing data after the first JSON value (json.Decoder.Decode alone
// would silently ignore the latter).
func decodeStrict(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if err := decodeStrict(r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return
	}
	switch req.Format {
	case "", "json", "geojson":
	default:
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown format %q", req.Format)})
		return
	}
	q, err := s.buildQuery(&req)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	algo, err := core.ParseAlgorithm(req.Algorithm)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.Timeout)
	defer cancel()
	// A span tracer is always attached so flight-recorder records carry
	// the phase breakdown and slow queries retain their span tree; on
	// cache hits the engine never runs and it stays empty.
	opt := core.Options{CollectStats: true, Spans: span.NewTracer()}
	var (
		res    *core.Result
		cached bool
	)
	searchStart := time.Now()
	if req.IncludeStats {
		// Bypass the cache: the phase timings must describe this
		// execution, not a stored one.
		res, err = s.eng.Search(ctx, q, algo, opt)
	} else {
		res, cached, err = s.cache.Search(ctx, s.eng, q, algo, opt)
	}
	s.phasesDropped.Add(float64(opt.Spans.PhasesDropped()))
	s.spansDropped.Add(float64(opt.Spans.Dropped()))
	if err != nil {
		status := http.StatusBadRequest
		if ctx.Err() != nil {
			status = http.StatusGatewayTimeout
		}
		s.writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	switch {
	case req.IncludeStats:
		w.Header().Set("X-Cache", "bypass")
	case cached:
		w.Header().Set("X-Cache", "hit")
	default:
		w.Header().Set("X-Cache", "miss")
	}
	if !cached {
		// The engine actually ran: record latency and work. Cache hits
		// are excluded so the histogram measures search cost, not map
		// lookups, and work counters are not double-counted.
		s.latency.With(res.Algorithm.String()).Observe(res.Elapsed.Seconds())
		res.Stats.Each(func(name string, value int64) {
			s.work.With(name).Add(float64(value))
		})
		// The engine computed the skew once, for its flight record and
		// for these histograms and include_stats alike.
		if skew := res.Skew; skew != nil {
			s.imbalance.With(res.Algorithm.String()).Observe(skew.ImbalanceRatio)
			s.critPath.With(res.Algorithm.String()).Observe(skew.CriticalPathMS / 1e3)
		}
	} else {
		// The engine emits flight records for its own runs; cache hits
		// never reach it, so the server records them here.
		s.emitHitRecord(r.Context(), q, res, time.Since(searchStart))
	}
	if req.Format == "geojson" {
		w.Header().Set("Content-Type", "application/geo+json")
		w.WriteHeader(http.StatusOK)
		if err := export.Results(w, s.eng.Dataset(), q, res); err != nil {
			s.logWriteErr(r.Context(), err)
		}
		return
	}
	resp := s.buildResponse(q, res)
	if req.IncludeStats {
		resp.Stats = &SearchStats{Work: res.Stats, Phases: opt.Spans.PhaseTimings(), Skew: res.Skew}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// emitHitRecord records a cache-hit query in the flight recorder. The
// latency is the cache-lookup wall time; Work carries the counters of
// the execution that originally produced the cached result, so a replay
// of the capture still has exact counters to match against.
func (s *Server) emitHitRecord(ctx context.Context, q *query.Query, res *core.Result, elapsed time.Duration) {
	rec := flight.Record{
		RequestID: obs.RequestID(ctx),
		Start:     time.Now().Add(-elapsed).UnixNano(),
		LatencyNS: int64(elapsed),
		Algorithm: res.Algorithm.String(),
		Variant:   q.Variant.String(),
		M:         int32(q.Example.M()),
		Dims:      int32(s.eng.Dataset().AttrDim()),
		Pins:      int32(len(q.Example.Fixed)),
		K:         int32(q.Params.K),
		CacheHit:  true,
		Outcome:   flight.OutcomeOK,
		Work:      res.Stats,
	}
	if s.flight.WouldRetain(elapsed) {
		rec.Capture = core.CaptureQuery(s.eng.Dataset(), q, res.Algorithm)
	}
	s.flight.ObserveAndLog(&rec)
}

// debugQueriesResponse is the GET /debug/queries body: recorder state
// plus the tail-sampled slowest and ring-buffered recent records.
type debugQueriesResponse struct {
	Observed uint64 `json:"observed"`
	Slow     uint64 `json:"slow"`
	// ThresholdActive is false while the adaptive tracker is still
	// warming up and no floor is configured (nothing counts as slow).
	ThresholdActive bool            `json:"threshold_active"`
	ThresholdMS     float64         `json:"threshold_ms,omitempty"`
	P99MS           float64         `json:"p99_ms,omitempty"`
	Slowest         []flight.Record `json:"slowest"`
	Recent          []flight.Record `json:"recent"`
}

func (s *Server) debugQueriesState(n int) debugQueriesResponse {
	resp := debugQueriesResponse{
		Observed: s.flight.Observed(),
		Slow:     s.flight.SlowCount(),
		Slowest:  s.flight.Slowest(),
		Recent:   s.flight.Recent(n),
	}
	if thr, ok := s.flight.Threshold(); ok {
		resp.ThresholdActive = true
		resp.ThresholdMS = float64(thr) / float64(time.Millisecond)
	}
	if p, ok := s.flight.P99(); ok {
		resp.P99MS = float64(p) / float64(time.Millisecond)
	}
	if len(resp.Slowest) > n {
		resp.Slowest = resp.Slowest[:n]
	}
	return resp
}

// debugPage renders /debug/queries?format=html — a dependency-free
// one-page view for a browser next to a misbehaving deployment.
var debugPage = template.Must(template.New("queries").Parse(`<!doctype html>
<html><head><title>spatialseq query flight recorder</title>
<style>
body{font-family:ui-monospace,monospace;margin:1.5em}
table{border-collapse:collapse;margin:0.5em 0}
td,th{border:1px solid #bbb;padding:2px 8px;text-align:right}
td.l,th.l{text-align:left}
th{background:#eee}
</style></head><body>
<h1>query flight recorder</h1>
<p>observed {{.Observed}} &middot; slow {{.Slow}}{{if .ThresholdActive}} &middot; threshold {{printf "%.3f" .ThresholdMS}} ms{{end}}{{if .P99MS}} &middot; p99 {{printf "%.3f" .P99MS}} ms{{end}}</p>
<h2>slowest (tail-sampled)</h2>
{{template "tbl" .Slowest}}
<h2>recent</h2>
{{template "tbl" .Recent}}
{{define "tbl"}}{{if .}}<table>
<tr><th class=l>request</th><th>seq</th><th>latency ms</th><th class=l>algorithm</th><th class=l>variant</th><th>m</th><th>pins</th><th>k</th><th class=l>cache</th><th class=l>outcome</th><th class=l>capture</th><th>imbalance</th><th class=l>trace</th></tr>
{{range .}}<tr><td class=l>{{.RequestID}}</td><td>{{.Seq}}</td><td>{{printf "%.3f" .LatencyMS}}</td><td class=l>{{.Algorithm}}</td><td class=l>{{.Variant}}</td><td>{{.M}}</td><td>{{.Pins}}</td><td>{{.K}}</td><td class=l>{{if .CacheHit}}hit{{else}}miss{{end}}</td><td class=l>{{.Outcome}}</td><td class=l>{{if .Capture}}yes{{end}}</td><td>{{if .Skew}}{{printf "%.2f" .Skew.ImbalanceRatio}}{{end}}</td><td class=l>{{if and .Spans .RequestID}}<a href="/debug/trace/{{.RequestID}}?format=html">trace</a>{{end}}</td></tr>
{{end}}</table>{{else}}<p>(none)</p>{{end}}{{end}}
</body></html>
`))

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	n := 50
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("invalid n %q", v)})
			return
		}
		n = parsed
	}
	resp := s.debugQueriesState(n)
	switch r.URL.Query().Get("format") {
	case "", "json":
		s.writeJSON(w, http.StatusOK, resp)
	case "html":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if err := debugPage.Execute(w, resp); err != nil {
			s.logWriteErr(r.Context(), err)
		}
	default:
		s.writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("unknown format %q", r.URL.Query().Get("format"))})
	}
}

// handleDebugCapture exports the retained slow queries in the replayable
// capture format `seqbench -exp replay` consumes.
func (s *Server) handleDebugCapture(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.flight.CaptureFile())
}

// SnapRequest is the /snap request body: a map click to resolve to the
// nearest real objects (the example-selection interaction of Fig. 2).
type SnapRequest struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Category string  `json:"category,omitempty"` // empty = any category
	K        int     `json:"k,omitempty"`        // default 5, at most query.MaxK
}

// SnapResponse is the /snap response body.
type SnapResponse struct {
	Results []SnapResult `json:"results"`
}

// SnapResult is one nearest object.
type SnapResult struct {
	Object ResultObject `json:"object"`
	Dist   float64      `json:"dist"`
}

func (s *Server) handleSnap(w http.ResponseWriter, r *http.Request) {
	var req SnapRequest
	if err := decodeStrict(r, &req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid JSON: " + err.Error()})
		return
	}
	ds := s.eng.Dataset()
	cat := dataset.NoCategory
	if req.Category != "" {
		var ok bool
		cat, ok = ds.CategoryByName(req.Category)
		if !ok {
			s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown category %q", req.Category)})
			return
		}
	}
	k := req.K
	if k <= 0 {
		k = 5
	}
	if k > query.MaxK {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("k must be at most %d, got %d", query.MaxK, k)})
		return
	}
	var resp SnapResponse
	for _, sr := range s.eng.Snap(geo.Point{X: req.X, Y: req.Y}, cat, k) {
		o := ds.Object(int(sr.Position))
		resp.Results = append(resp.Results, SnapResult{
			Dist: sr.Dist,
			Object: ResultObject{
				ID: o.ID, Name: o.Name, X: o.Loc.X, Y: o.Loc.Y,
				Category: ds.CategoryName(o.Category), Attrs: o.Attr,
			},
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// lookupID resolves a dataset object ID to its position, building the
// index once on first use (the dataset is immutable, so the index never
// goes stale).
func (s *Server) lookupID(id int64) (int32, bool) {
	s.idOnce.Do(func() {
		ds := s.eng.Dataset()
		s.idIndex = make(map[int64]int32, ds.Len())
		for i := 0; i < ds.Len(); i++ {
			s.idIndex[ds.Object(i).ID] = int32(i)
		}
	})
	pos, ok := s.idIndex[id]
	return pos, ok
}

func (s *Server) buildQuery(req *SearchRequest) (*query.Query, error) {
	ds := s.eng.Dataset()
	if len(req.Example) < 2 {
		return nil, fmt.Errorf("example needs at least 2 objects, got %d", len(req.Example))
	}
	q := &query.Query{
		Params: query.Params{K: req.K, Alpha: req.Alpha, Beta: req.Beta, GridD: req.GridD, Xi: req.Xi},
	}
	switch req.Variant {
	case "", "cseq":
		q.Variant = query.CSEQ
	case "seq":
		q.Variant = query.SEQ
	case "cseq-fp":
		q.Variant = query.CSEQFP
	default:
		return nil, fmt.Errorf("unknown variant %q", req.Variant)
	}
	for dim, eo := range req.Example {
		cat, ok := ds.CategoryByName(eo.Category)
		if !ok {
			return nil, fmt.Errorf("example[%d]: unknown category %q", dim, eo.Category)
		}
		attrs := eo.Attrs
		if attrs == nil {
			attrs = categoryCentroid(ds, cat)
			if attrs == nil {
				return nil, fmt.Errorf("example[%d]: category %q is empty; supply attrs", dim, eo.Category)
			}
		}
		q.Example.Categories = append(q.Example.Categories, cat)
		q.Example.Locations = append(q.Example.Locations, geo.Point{X: eo.X, Y: eo.Y})
		q.Example.Attrs = append(q.Example.Attrs, attrs)
		if eo.FixedID != nil {
			pos, ok := s.lookupID(*eo.FixedID)
			if !ok {
				return nil, fmt.Errorf("example[%d]: fixed_id %d not in dataset", dim, *eo.FixedID)
			}
			q.Example.Fixed = append(q.Example.Fixed, query.FixedPoint{Dim: dim, Obj: pos})
		}
	}
	return q, nil
}

func (s *Server) buildResponse(q *query.Query, res *core.Result) SearchResponse {
	ds := s.eng.Dataset()
	out := SearchResponse{
		Algorithm: res.Algorithm.String(),
		Variant:   q.Variant.String(),
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond),
	}
	for _, t := range res.Tuples {
		rt := ResultTuple{Sim: t.Sim}
		for _, pos := range t.Positions {
			o := ds.Object(int(pos))
			rt.Objects = append(rt.Objects, ResultObject{
				ID:       o.ID,
				Name:     o.Name,
				X:        o.Loc.X,
				Y:        o.Loc.Y,
				Category: ds.CategoryName(o.Category),
				Attrs:    o.Attr,
			})
		}
		out.Results = append(out.Results, rt)
	}
	return out
}

func categoryCentroid(ds *dataset.Dataset, cat dataset.CategoryID) []float64 {
	objs := ds.CategoryObjects(cat)
	if len(objs) == 0 {
		return nil
	}
	centroid := make([]float64, ds.AttrDim())
	for _, pos := range objs {
		for j, a := range ds.Object(int(pos)).Attr {
			centroid[j] += a
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(objs))
	}
	return centroid
}

// writeJSON writes v as the response body. Encode errors (a client gone
// mid-body, or an unencodable value) are logged rather than silently
// dropped — the status line is already on the wire, so logging is all
// that is left to do.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.logWriteErr(context.Background(), err)
	}
}

// logWriteErr records a response-encoding failure at warn level.
func (s *Server) logWriteErr(ctx context.Context, err error) {
	s.logger.LogAttrs(ctx, slog.LevelWarn, "response write failed",
		slog.String("id", obs.RequestID(ctx)),
		slog.String("error", err.Error()))
}
