package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"spatialseq/internal/algo/hsp"
	"spatialseq/internal/algo/lora"
	"spatialseq/internal/core"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
	"spatialseq/internal/stats"
	"spatialseq/internal/topk"
)

// span is one of the benchmark's own spans around a call into a layer.
// Spans of one query or request share its query ID.
type span struct {
	Name   string `json:"name"`
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// EngineNS is the response's elapsed_ms on a server.handler span:
	// the engine's share of the handler time.
	EngineNS int64 `json:"engine_ns,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends. Only the
// traced run's own goroutine appends to it.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, query, parent int) int {
	return l.add(name, query, parent, l.now(), 0)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = l.now() }

// add appends a span measured elsewhere and returns its ID.
func (l *spanLog) add(name string, query, parent int, start, end int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Query: query, ID: id, Parent: parent, Start: start, End: end})
	return id
}

func (l *spanLog) dur(id int) time.Duration {
	s := l.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's own time: its duration minus the part
// of it its child spans cover. Indexed like spans.
func selfTimes(spans []span) []int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerSums adds up the self time of the spans of each name.
func layerSums(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, t := range selfTimes(spans) {
		out[spans[i].Name] += time.Duration(t)
	}
	return out
}

// ledger accumulates the counts of the traced engine queries.
type ledger struct {
	queries           int
	radii             map[float64]bool
	subspaces, acPts  int64
	candidates        int64
	partAlloc         uint64
	hspAlloc          uint64
	loraAlloc         uint64
	hspStats          stats.Snapshot
	loraStats         stats.Snapshot
	hspEnum, loraEnum time.Duration
	loraCPU, loraWall time.Duration
	untraced, traced  time.Duration
}

// tracer runs queries through the engine's layers one public call at a
// time, each call in a span.
type tracer struct {
	st  *stack
	log *spanLog
	l   ledger
	// The scoring buffers, reused across queries.
	cands []simil.Cand
	batch simil.BatchScratch
	pos   []int32
	sims  []float64
}

// query answers q the way core.Engine.Search does, calling each layer's
// public function in the engine's order:
//
//  1. query.Query.Validate
//  2. simil.NewContext
//  3. partition.Index.PartitionBucketed
//  4. the simil memo prep when there is more than one subspace
//     (EnableMemo sequential, PrepareMemoShared parallel)
//  5. the candidate scoring over each subspace, as the algorithm does
//     it (see score)
//  6. hsp.Search or lora.Search with Options.Stats set
//
// The algorithm repeats steps 2-5 itself (its PartitionBucketed call
// then hits the partition cache), so its enumeration time is its span
// minus the prep and scoring it repeats. With LORA's two workers that
// is an estimate, low by whatever scoring the workers overlap.
func (tr *tracer) query(qid int, q *query.Query, algo core.Algorithm, par int) ([]core.ResultTuple, core.Algorithm, error) {
	ds, pix, log, l := tr.st.ds, tr.st.eng.PartitionIndex(), tr.log, &tr.l
	root := log.begin("query", qid, 0)
	defer log.end(root)

	sp := log.begin("core.validate", qid, root)
	err := q.Validate(ds)
	log.end(sp)
	if err != nil {
		return nil, algo, err
	}
	algo = core.Choose(ds, q, algo)

	ctxSpan := log.begin("simil.context", qid, root)
	sctx := simil.NewContext(ds, q)
	log.end(ctxSpan)

	a0 := allocBytes()
	sp = log.begin("partition.bucketed", qid, root)
	part, err := pix.PartitionBucketed(sctx.PartitionRadius())
	log.end(sp)
	l.partAlloc += allocBytes() - a0
	if err != nil {
		return nil, algo, err
	}
	l.radii[part.Radius] = true
	l.subspaces += int64(len(part.Subspaces))
	for i := range part.Subspaces {
		l.acPts += int64(len(part.Subspaces[i].ACPoints))
	}

	var repeated time.Duration // prep and scoring the algorithm repeats
	if len(part.Subspaces) > 1 {
		sp = log.begin("simil.memo_prep", qid, root)
		if par > 1 {
			sctx.PrepareMemoShared()
		} else {
			sctx.EnableMemo()
		}
		log.end(sp)
		repeated += log.dur(sp)
	}
	sp = log.begin("simil.score", qid, root)
	for i := range part.Subspaces {
		ss := &part.Subspaces[i]
		for d := 0; d < sctx.M; d++ {
			src := ss.ACPoints
			if d == 0 {
				src = ss.CorePoints
			}
			n := tr.score(sctx, algo, d, src)
			l.candidates += int64(n)
			if n == 0 {
				break // the algorithms skip the subspace here too
			}
		}
	}
	log.end(sp)
	repeated += log.dur(ctxSpan) + log.dur(sp)

	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	st := &stats.Stats{}
	var entries []topk.Entry
	a0, c0 := allocBytes(), cpuTime()
	switch algo {
	case core.HSP:
		sp = log.begin("hsp.search", qid, root)
		entries, err = hsp.Search(ctx, ds, pix, q, hsp.Options{Parallelism: par, Stats: st})
		log.end(sp)
		l.hspAlloc += allocBytes() - a0
		l.hspStats = l.hspStats.Add(st.Snapshot())
		l.hspEnum += max(log.dur(sp)-repeated, 0)
	case core.LORA:
		sp = log.begin("lora.search", qid, root)
		entries, err = lora.Search(ctx, ds, pix, q, lora.Options{Parallelism: par, Stats: st})
		log.end(sp)
		l.loraCPU += cpuTime() - c0
		l.loraWall += log.dur(sp)
		l.loraAlloc += allocBytes() - a0
		l.loraStats = l.loraStats.Add(st.Snapshot())
		l.loraEnum += max(log.dur(sp)-repeated, 0)
	default:
		return nil, algo, fmt.Errorf("traced run has no path for %v", algo)
	}
	if err != nil {
		return nil, algo, err
	}
	l.queries++
	tuples := make([]core.ResultTuple, len(entries))
	for i, e := range entries {
		tuples[i] = core.ResultTuple{Positions: e.Tuple, Sim: e.Sim}
	}
	return tuples, algo, nil
}

// score scores dimension d's candidates among src through the public
// call the algorithm uses and returns how many there are. HSP calls
// CandidatesBatchInto (category filter, AttrSimBatch, sort); LORA
// gathers the category survivors and scores them with AttrSimBatch,
// then buckets them by grid cell, which is LORA's own work.
func (tr *tracer) score(sctx *simil.Context, algo core.Algorithm, d int, src []int32) int {
	if algo != core.LORA {
		tr.cands = sctx.CandidatesBatchInto(tr.cands[:0], d, src, &tr.batch)
		return len(tr.cands)
	}
	cat := sctx.Ex.Categories[d]
	tr.pos = tr.pos[:0]
	for _, p := range src {
		if sctx.DS.Category(int(p)) == cat {
			tr.pos = append(tr.pos, p)
		}
	}
	tr.sims = slices.Grow(tr.sims[:0], len(tr.pos))[:len(tr.pos)]
	sctx.AttrSimBatch(d, tr.pos, tr.sims)
	return len(tr.pos)
}

// runTraced is the traced run (-trace 1). It runs a list of queries
// twice: first untraced through core.Engine.Search, then through the
// traced call sequence, and trace.overhead_pct compares the two passes.
// Each pass meets the partition cache the same way, so a rebuild shows
// in the partition span rather than being paid by the other pass. The
// in-process workloads take their queries from the pool; yelp-http
// first plays its HTTP run with the server handler timed, then
// replays its cache misses.
func runTraced(sp spec, in *inputs, st *stack, seconds float64, dir string, rep *report) error {
	log := &spanLog{t0: time.Now()}
	tr := &tracer{st: st, log: log, l: ledger{radii: map[float64]bool{}}}
	// The traced pass costs about 1.7 times the untraced one, so this
	// keeps both within the measured phase's length.
	untracedFor := time.Duration(seconds * 0.35 * float64(time.Second))
	var (
		qids []int
		qs   []*query.Query
	)
	if sp.http {
		hr, err := playHTTP(in, st, seconds, true)
		if err != nil {
			return err
		}
		reportHTTP(in, st, hr, rep)
		// One timeline: the HTTP spans are offsets from the start of the
		// run, and the replay's spans follow them.
		log.t0 = hr.start
		for i, r := range hr.replies {
			req := log.add("http.request", i, 0, int64(r.sent), int64(r.done))
			if r.handlerEnd > 0 {
				h := log.add("server.handler", i, req, int64(r.handlerStart), int64(r.handlerEnd))
				if a := hr.answers[i]; a != nil && r.cache != "hit" {
					log.spans[h-1].EngineNS = int64(a.resp.ElapsedMS * 1e6)
				}
			}
		}
		// Replay the misses in stream order, each example once, under the
		// request's query ID.
		replayed := map[int]bool{}
		for i, r := range hr.replies {
			if u := in.req(i).uniq; r.cache == "miss" && !replayed[u] {
				replayed[u] = true
				qids, qs = append(qids, i), append(qs, in.queries[u])
			}
		}
		untracedFor /= 2 // the HTTP run already took the measured phase
	} else {
		warmUp(sp, in, st, rep)
		for i := range in.queries {
			qids, qs = append(qids, i), append(qs, in.queries[i])
		}
	}

	fail := func(qid int, err error) {
		rep.fail("traced run, query %d: %v", qid, err)
	}
	n := 0
	for t0 := time.Now(); n < len(qs) && time.Since(t0) < untracedFor; n++ {
		t1 := time.Now()
		res, err := search(st.eng, qs[n], sp.algo, sp.options())
		tr.l.untraced += time.Since(t1)
		if err == nil {
			err = checkAnswer(st.ds, qs[n], res.Algorithm, res.Tuples)
		}
		if err != nil {
			fail(qids[n], err)
		}
	}
	for i := 0; i < n; i++ {
		t1 := time.Now()
		tuples, algo, err := tr.query(qids[i], qs[i], sp.algo, sp.parallelism)
		tr.l.traced += time.Since(t1)
		if err == nil {
			err = checkAnswer(st.ds, qs[i], algo, tuples)
		}
		if err != nil {
			fail(qids[i], err)
		}
	}
	rep.attempted += 2 * n

	path := filepath.Join(dir, "spans", sp.name+".jsonl")
	if err := log.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.extra = append(rep.extra, fmt.Sprintf("spans: %d written to %s", len(log.spans), path))
	tr.report(rep)
	return nil
}

// report turns the spans and the ledger into the per-layer metrics.
func (tr *tracer) report(rep *report) {
	l := &tr.l
	n := float64(l.queries)
	per := func(v float64) float64 { return ratio(v, n) }
	sums := layerSums(tr.log.spans)
	msPer := func(name string) float64 { return per(ms(sums[name])) }
	perQ := fmt.Sprintf("per query, n=%d", l.queries)

	rep.set("core.validate_us", msPer("core.validate")*1e3, perQ)
	rep.set("simil.context_us", msPer("simil.context")*1e3, perQ)
	rep.set("partition.ms_per_query", msPer("partition.bucketed"), perQ)
	rep.set("partition.alloc_mb_per_query", per(float64(l.partAlloc)/mb), perQ)
	rep.set("partition.subspaces_per_query", per(float64(l.subspaces)), perQ)
	rep.set("partition.ac_points_per_query", per(float64(l.acPts)), perQ)
	rep.set("partition.distinct_radii", float64(len(l.radii)), "radius buckets; the partition cache holds 16")
	rep.set("simil.memo_prep_ms_per_query", msPer("simil.memo_prep"), perQ)
	all := l.hspStats.Add(l.loraStats)
	rep.set("simil.memo_hit_ratio", ratio(float64(all.AttrSimMemoHits), float64(all.AttrSimMemoHits+all.AttrSimMemoMisses)), "stats.Snapshot attr_sim_memo_hits over lookups")
	rep.set("simil.score_ms_per_query", msPer("simil.score"), perQ)
	rep.set("simil.candidates_per_query", per(float64(l.candidates)), perQ)
	rep.set("simil.ns_per_candidate", ratio(float64(sums["simil.score"].Nanoseconds()), float64(l.candidates)), "")

	h := l.hspStats
	rep.set("hsp.enum_ms_per_query", per(ms(l.hspEnum)), "hsp.Search span minus the prep and scoring it repeats")
	rep.set("hsp.alloc_mb_per_query", per(float64(l.hspAlloc)/mb), perQ)
	rep.set("hsp.pruned_per_query", per(float64(h.PrunedPrefixes)), perQ)
	rep.set("hsp.tuples_per_query", per(float64(h.Tuples)), perQ)
	rep.set("hsp.skipped_subspace_ratio", ratio(float64(h.SubspacesSkipped), float64(h.Subspaces+h.SubspacesSkipped)), "")
	rep.set("topk.offered_per_query", per(float64(all.Offered)), perQ)
	rep.set("topk.accept_ratio", ratio(float64(all.Offered), float64(all.Tuples)), "offered over scored tuples")

	lo := l.loraStats
	rep.set("lora.enum_ms_per_query", per(ms(l.loraEnum)), "estimate: lora.Search span minus the prep and scoring it repeats, timed on one goroutine")
	rep.set("lora.alloc_mb_per_query", per(float64(l.loraAlloc)/mb), perQ)
	rep.set("lora.cell_tuples_per_query", per(float64(lo.CellTuples)), perQ)
	rep.set("lora.pruned_cell_prefixes_per_query", per(float64(lo.PrunedCellPrefixes)), perQ)
	rep.set("lora.sampled_out_ratio", ratio(float64(lo.SampledOut), float64(lo.Candidates)), "sampled-out over candidate points")
	rep.set("rankgraph.pops_per_query", per(float64(lo.RankPops)), perQ)
	rep.set("sched.cpu_per_wall", ratio(l.loraCPU.Seconds(), l.loraWall.Seconds()), "inside lora.Search")
	rep.set("trace.overhead_pct", (ratio(l.traced.Seconds(), l.untraced.Seconds())-1)*100, "traced over untraced wall time of the same queries")
}
