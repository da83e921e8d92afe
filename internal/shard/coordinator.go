package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/geo"
	"spatialseq/internal/obs"
	"spatialseq/internal/obs/flight"
	"spatialseq/internal/partition"
	"spatialseq/internal/query"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// Error marks a scatter leg failure: the coordinator never merges a
// partial top-k, so one failing shard fails the whole query with its
// shard index attached. The server maps it to 502 (distinct from the
// 400 of a bad query and the 504 of a blown budget).
type Error struct {
	Shard int
	Err   error
}

// Error implements error.
func (e *Error) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// Config configures a Coordinator. The zero value runs one in-process
// shard.
type Config struct {
	// Shards is the shard count (< 1 is treated as 1). Ignored when
	// Backends is set.
	Shards int
	// Index, when non-nil, is a prebuilt partition index over exactly the
	// dataset's locations; all shard engines share it (and its partition
	// cache). Nil builds one.
	Index *partition.Index
	// Parallelism is each shard's intra-search parallelism (<= 1
	// sequential). The scatter itself always runs one goroutine per
	// shard.
	Parallelism int
	// Flight, when non-nil, receives every shard engine's per-query
	// flight records, each stamped with its shard ID.
	Flight *flight.Recorder
	// Metrics, when non-nil, registers the per-shard work counters and
	// busy-time series that make cross-shard skew visible in /metrics.
	Metrics *obs.Registry
	// Backends overrides the in-process shard engines — the hook for
	// fault-injection tests and, later, remote transports. When set,
	// Shards, Index, Parallelism and Flight are ignored.
	Backends []Backend
}

// Coordinator fans a query out to every shard backend, shares the global
// pruning threshold across them while they search, and merges their
// local top-ks deterministically. It implements core.Searcher, so the
// server and the eval harness drive it exactly like a single engine.
type Coordinator struct {
	ds       *dataset.Dataset
	plan     *Plan
	backends []Backend
	labels   []string // per-shard metric label values

	work *obs.CounterVec
	busy *obs.CounterVec

	mu      sync.Mutex
	cum     []stats.Snapshot
	busyDur []time.Duration
}

var _ core.Searcher = (*Coordinator)(nil)

// New builds a coordinator over ds with cfg.
func New(ds *dataset.Dataset, cfg Config) *Coordinator {
	n := cfg.Shards
	if len(cfg.Backends) > 0 {
		n = len(cfg.Backends)
	}
	if n < 1 {
		n = 1
	}
	pts := make([]geo.Point, ds.Len())
	for i := range pts {
		pts[i] = ds.Loc(i)
	}
	c := &Coordinator{
		ds:      ds,
		plan:    NewPlan(pts, n),
		labels:  make([]string, n),
		cum:     make([]stats.Snapshot, n),
		busyDur: make([]time.Duration, n),
	}
	for i := range c.labels {
		c.labels[i] = strconv.Itoa(i)
	}
	if len(cfg.Backends) > 0 {
		c.backends = cfg.Backends
	} else {
		pix := cfg.Index
		if pix == nil {
			pix = partition.NewIndex(pts)
		}
		c.backends = make([]Backend, n)
		for i := 0; i < n; i++ {
			eng := core.NewEngineWithIndex(ds, pix)
			eng.SetShardID(int32(i))
			if cfg.Flight != nil {
				eng.SetFlightRecorder(cfg.Flight)
			}
			c.backends[i] = NewLocal(eng, c.ownerFunc(i), cfg.Parallelism)
		}
	}
	if cfg.Metrics != nil {
		c.work = cfg.Metrics.Counter("spatialseq_shard_work_total",
			"Cumulative per-shard engine work counters, by stats.Snapshot field.", "shard", "counter")
		c.busy = cfg.Metrics.Counter("spatialseq_shard_busy_seconds_total",
			"Cumulative per-shard search busy time; cross-shard skew is the spread of this series.", "shard")
		shards := float64(n)
		cfg.Metrics.GaugeFunc("spatialseq_shards",
			"Shard count of the scatter-gather tier.",
			func() float64 { return shards })
	}
	return c
}

// ownerFunc claims the subspaces whose core center falls in shard i's
// plan region. Centers are what make the claim disjoint and total: a
// core rectangle may straddle a region seam, but its center has exactly
// one owner.
func (c *Coordinator) ownerFunc(i int) func(geo.Rect) bool {
	return func(core geo.Rect) bool {
		return c.plan.Owner(core.Center()) == i
	}
}

// Dataset returns the shared dataset (core.Searcher).
func (c *Coordinator) Dataset() *dataset.Dataset { return c.ds }

// Shards returns the number of shard backends.
func (c *Coordinator) Shards() int { return len(c.backends) }

// Plan returns the geographic shard plan.
func (c *Coordinator) Plan() *Plan { return c.plan }

// WorkByShard returns a copy of the cumulative per-shard work counters.
func (c *Coordinator) WorkByShard() []stats.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]stats.Snapshot, len(c.cum))
	copy(out, c.cum)
	return out
}

// BusyByShard returns a copy of the cumulative per-shard busy time.
func (c *Coordinator) BusyByShard() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.busyDur))
	copy(out, c.busyDur)
	return out
}

// Search implements core.Searcher: validate once, resolve the algorithm
// once, scatter, gather, merge. HSP and LORA scatter across every shard
// under a shared threshold exchange; algorithms without a Lemma-1
// decomposition (brute force, DFS-Prune) run whole on shard 0, which
// in-process sees the full dataset. Any leg error fails the query — a
// truncated merge would silently drop answers.
func (c *Coordinator) Search(ctx context.Context, q *query.Query, algo core.Algorithm, opt core.Options) (*core.Result, error) {
	start := time.Now()
	root := opt.Spans.Root("scatter")
	vsp := root.Child("validate")
	verr := q.Validate(c.ds)
	vsp.End()
	if verr != nil {
		root.End()
		return nil, verr
	}
	resolved := core.Choose(c.ds, q, algo)
	legs := c.backends
	var ex *Exchange
	if resolved == core.HSP || resolved == core.LORA {
		ex = NewExchange()
	} else {
		legs = c.backends[:1]
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resps := make([]*Response, len(legs))
	errs := make([]error, len(legs))
	var wg sync.WaitGroup
	for i := range legs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One span per leg, tagged with the shard as both worker lane
			// and subspace: Tree.Skew then reports cross-shard imbalance,
			// with the straggler attribution naming the slow shard.
			lane := root.Unit("shard.search", i, i)
			resp, err := legs[i].Search(sctx, &Request{
				Query:        q,
				Algo:         resolved,
				Exchange:     ex,
				CollectSpans: opt.Spans != nil,
			})
			if err != nil {
				lane.End()
				errs[i] = &Error{Shard: i, Err: err}
				cancel() // a failed leg makes the others' work unusable
				return
			}
			lane.EndWork(resp.Stats)
			resps[i] = resp
		}(i)
	}
	wg.Wait()
	if err := firstError(ctx, errs); err != nil {
		root.End()
		return nil, err
	}

	msp := root.Child("shard.merge")
	legTuples := make([][]core.ResultTuple, len(resps))
	var agg stats.Snapshot
	for i, resp := range resps {
		legTuples[i] = resp.Tuples
		agg = agg.Add(resp.Stats)
	}
	tuples := Merge(q.Params.K, legTuples)
	msp.End()
	root.End()
	c.account(resps)

	res := &core.Result{Algorithm: resolved, Tuples: tuples, Elapsed: time.Since(start), Skew: opt.Spans.Skew()}
	if opt.CollectStats {
		res.Stats = agg
	}
	return res, nil
}

// firstError picks the error the caller sees. When the parent context is
// dead, every leg reports its cancellation and shard order is arbitrary,
// so the context error itself is the truthful outcome. Otherwise prefer
// the lowest-indexed leg whose failure is not a propagated cancellation
// (the root cause, not the collateral), falling back to the first error.
func firstError(ctx context.Context, errs []error) error {
	if err := ctx.Err(); err != nil {
		for _, e := range errs {
			if e != nil {
				return e
			}
		}
		return err
	}
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if first == nil {
			first = e
		}
		if !errors.Is(e, context.Canceled) {
			return e
		}
	}
	return first
}

// Merge folds per-shard top-k lists into the global top-k using the same
// deterministic collector the single engine uses: similarity descending,
// exact ties by tuple identity. Offering entries into a fresh bounded
// heap is commutative, so the result is invariant under any permutation
// of shard response arrival order — the property test pins this down.
func Merge(k int, legs [][]core.ResultTuple) []core.ResultTuple {
	h := topk.New(k)
	for _, leg := range legs {
		for _, t := range leg {
			h.Offer(t.Positions, t.Sim)
		}
	}
	entries := h.Results()
	out := make([]core.ResultTuple, len(entries))
	for i, e := range entries {
		out[i] = core.ResultTuple{Positions: e.Tuple, Sim: e.Sim}
	}
	return out
}

// account folds a gather's per-shard work into the cumulative counters
// and the /metrics series.
func (c *Coordinator) account(resps []*Response) {
	c.mu.Lock()
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		c.cum[i] = c.cum[i].Add(resp.Stats)
		c.busyDur[i] += resp.Elapsed
	}
	c.mu.Unlock()
	if c.work == nil {
		return
	}
	for i, resp := range resps {
		if resp == nil {
			continue
		}
		label := c.labels[i]
		resp.Stats.Each(func(name string, value int64) {
			c.work.With(label, name).Add(float64(value))
		})
		c.busy.With(label).Add(resp.Elapsed.Seconds())
	}
}
