package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/query"
	"spatialseq/internal/simil"
)

// queryTimeout bounds one query, as the server's default does; a query
// that hits it counts as failed.
const queryTimeout = 30 * time.Second

// digestQueries is how many leading answers the answer digest covers.
const digestQueries = 100

// sample is one measured query.
type sample struct {
	qi  int // index into the pool
	lat time.Duration
	res *core.Result
	err error
}

func search(eng *core.Engine, q *query.Query, algo core.Algorithm, opt core.Options) (*core.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
	defer cancel()
	return eng.Search(ctx, q, algo, opt)
}

// closedLoop runs one client that sends the pool's queries back to back
// through core.Engine.Search until d has passed, cycling through the
// pool if it runs out.
func closedLoop(eng *core.Engine, sp spec, pool []*query.Query, d time.Duration) []sample {
	opt := sp.options()
	var out []sample
	for start := time.Now(); time.Since(start) < d; {
		qi := len(out) % len(pool)
		t0 := time.Now()
		res, err := search(eng, pool[qi], sp.algo, opt)
		out = append(out, sample{qi: qi, lat: time.Since(t0), res: res, err: err})
	}
	return out
}

// warmUp runs the warm-up examples and fills the partition cache.
func warmUp(sp spec, in *inputs, st *stack, rep *report) {
	for _, q := range in.warm {
		if _, err := search(st.eng, q, sp.algo, sp.options()); err != nil {
			rep.note("warm-up query: %v", err)
		}
	}
	rep.extra = append(rep.extra, fmt.Sprintf("warm-up: %d examples, %d radius buckets over the %d measured examples",
		len(in.warm), warmPartitions(st, in.queries), len(in.queries)))
}

// warmPartitions builds the partition of every radius bucket the
// examples use, as a long-running engine would already hold them in
// its partition cache (which keeps 16: a stream with more buckets keeps
// rebuilding them). It returns the number of buckets.
func warmPartitions(st *stack, qs []*query.Query) int {
	pix := st.eng.PartitionIndex()
	radii := map[float64]bool{}
	for _, q := range qs {
		if p, err := pix.PartitionBucketed(simil.NewContext(st.ds, q).PartitionRadius()); err == nil {
			radii[p.Radius] = true
		}
	}
	return len(radii)
}

// runClosed is the timed run of an in-process workload.
func runClosed(sp spec, in *inputs, st *stack, seconds float64, rep *report) {
	warmUp(sp, in, st, rep)
	w := openWindow()
	samples := closedLoop(st.eng, sp, in.queries, time.Duration(seconds*float64(time.Second)))
	wall, cpu, alloc := w.close()

	lats := make([]float64, len(samples))
	var simSum float64
	var tuples int
	for i, s := range samples {
		lats[i] = s.lat.Seconds() * 1e3
		err := s.err
		if err == nil {
			err = checkAnswer(st.ds, in.queries[s.qi], s.res.Algorithm, s.res.Tuples)
		}
		if err != nil {
			rep.failed++
			lats[i] = math.Inf(1)
			rep.note("query %d failed: %v", s.qi, err)
			continue
		}
		for _, t := range s.res.Tuples {
			simSum += t.Sim
			tuples++
		}
	}
	n := len(samples)
	rep.attempted = n
	done := float64(n - rep.failed)
	rep.latencies(lats)
	rep.set("throughput_qps", done/wall.Seconds(), fmt.Sprintf("%d queries in %.2f s", n-rep.failed, wall.Seconds()))
	rep.set("cpu_ms_per_query", ratio(cpu.Seconds()*1e3, done), "")
	rep.set("alloc_mb_per_query", ratio(float64(alloc)/mb, done), "")
	rep.set("avg_sim", ratio(simSum, float64(tuples)), fmt.Sprintf("%d tuples", tuples))
	if n > len(in.queries) {
		rep.note("the pool of %d examples was cycled (%d queries)", len(in.queries), n)
	}
}

// answerDigest hashes the positions and similarities of the first
// digestQueries answers, so two runs of one seed can be compared.
func answerDigest(samples []sample) string {
	h := sha256.New()
	n := 0
	for _, s := range samples {
		if n == digestQueries {
			break
		}
		n++
		if s.err != nil {
			fmt.Fprintf(h, "%d error\n", s.qi)
			continue
		}
		for _, t := range s.res.Tuples {
			fmt.Fprintf(h, "%d %v %.9f\n", s.qi, t.Positions, t.Sim)
		}
	}
	return fmt.Sprintf("%s over the first %d answers", hex.EncodeToString(h.Sum(nil))[:16], n)
}
