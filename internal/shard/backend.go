package shard

import (
	"context"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs/span"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
)

// Request is one scatter leg of a coordinator search. It is
// transport-shaped: plain values a later PR can serialize to put remote
// seqserver instances behind the Backend interface.
type Request struct {
	// Query is the validated query. Backends search a private shallow
	// copy, so in-process legs never race on the in-place normalization
	// Validate performs.
	Query *query.Query
	// Algo is the resolved algorithm (never Auto): the coordinator
	// resolves once so every shard runs the same one.
	Algo core.Algorithm
	// Exchange is the cross-shard pruning-threshold bus. Nil marks an
	// unpartitioned leg (brute force, DFS-Prune): the backend runs the
	// whole query without subspace filtering.
	Exchange *Exchange
	// CollectSpans asks the backend to record a per-shard span tree for
	// its execution (retained by the shard's flight records when the
	// query is slow).
	CollectSpans bool
}

// Response is one shard's answer: its local top-k (best-first) and the
// work it performed. The coordinator merges Tuples across shards and
// sums Stats.
type Response struct {
	Tuples  []core.ResultTuple
	Stats   stats.Snapshot
	Elapsed time.Duration
}

// Backend is one shard of the scatter-gather tier. Implementations must
// be safe for concurrent Search calls. A leg that cannot produce its
// complete local answer must return an error — the coordinator
// propagates it rather than merging a silently truncated top-k.
type Backend interface {
	Search(ctx context.Context, req *Request) (*Response, error)
}

// Local is the in-process backend: one shard engine sharing the full
// dataset and partition index, searching only the subspaces whose core
// rectangles its ownership claim covers.
type Local struct {
	eng *core.Engine
	own func(geo.Rect) bool
	par int
}

var _ Backend = (*Local)(nil)

// NewLocal wraps eng as a shard backend. own claims this shard's
// subspace cores (nil owns everything — a single-shard plan); par is the
// per-shard search parallelism passed to the algorithms.
func NewLocal(eng *core.Engine, own func(geo.Rect) bool, par int) *Local {
	return &Local{eng: eng, own: own, par: par}
}

// Engine exposes the wrapped shard engine (tests and metrics wiring).
func (b *Local) Engine() *core.Engine { return b.eng }

// Search runs the leg on the shard engine.
func (b *Local) Search(ctx context.Context, req *Request) (*Response, error) {
	q := *req.Query // private copy: Validate normalizes Params in place
	opt := core.Options{CollectStats: true}
	opt.HSP.Parallelism = b.par
	opt.LORA.Parallelism = b.par
	if req.CollectSpans {
		opt.Spans = span.NewTracer()
	}
	if req.Exchange != nil {
		sink := NewSink(q.Params.K, req.Exchange)
		opt.HSP.Own = b.own
		opt.LORA.Own = b.own
		opt.HSP.Sink = sink
		opt.LORA.Sink = sink
	}
	res, err := b.eng.Search(ctx, &q, req.Algo, opt)
	if err != nil {
		return nil, err
	}
	return &Response{Tuples: res.Tuples, Stats: res.Stats, Elapsed: res.Elapsed}, nil
}
