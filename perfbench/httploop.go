package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/server"
)

// reply is what a client observed for one request. Times are offsets
// from the start of the run.
type reply struct {
	sent   time.Duration // the client sent it
	done   time.Duration // its last response byte arrived
	status int
	cache  string // X-Cache: hit, miss or bypass
	body   []byte
	err    error
	// handler times srv.ServeHTTP (traced run only).
	handlerStart, handlerEnd time.Duration
}

// loadGen is the HTTP client side of one run.
type loadGen struct {
	url    string
	client *http.Client
	tr     *http.Transport
}

func newLoadGen(addr string) *loadGen {
	tr := &http.Transport{DisableCompression: true}
	return &loadGen{
		url:    "http://" + addr + "/search",
		client: &http.Client{Transport: tr, Timeout: 2 * queryTimeout},
		tr:     tr,
	}
}

// play sends requests one after another, each as soon as the previous
// answer has arrived, until d has passed or n requests have been sent,
// and returns what each got. Request i carries bodies[i%len(bodies)].
// Bodies are already encoded; responses are only read here and checked
// afterwards, so the client does little besides the HTTP exchange.
//
// One client: with 2 on 2 vCPUs, the two searches share the CPUs with
// the server's other work, and over five runs the p50 spread by 16 %,
// against 7 % with 1.
func (g *loadGen) play(idPrefix string, bodies [][]byte, d time.Duration, n int) ([]reply, time.Time) {
	var replies []reply
	start := time.Now()
	for i := 0; i < n && time.Since(start) < d; i++ {
		var r reply
		g.send(idPrefix+strconv.Itoa(i), bodies[i%len(bodies)], &r, start)
		replies = append(replies, r)
	}
	return replies, start
}

func (g *loadGen) send(id string, body []byte, rp *reply, start time.Time) {
	rp.sent = time.Since(start)
	defer func() { rp.done = time.Since(start) }()
	req, err := http.NewRequest(http.MethodPost, g.url, bytes.NewReader(body))
	if err != nil {
		rp.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := g.client.Do(req)
	if err != nil {
		rp.err = err
		return
	}
	defer resp.Body.Close()
	rp.status = resp.StatusCode
	rp.cache = resp.Header.Get("X-Cache")
	rp.body, rp.err = io.ReadAll(resp.Body)
}

// handlerTimes records when the server handler ran each measured
// request, keyed by the request's index (its X-Request-ID is "r<i>").
type handlerTimes struct {
	start time.Time // set before the server starts, never written again
	mu    sync.Mutex
	spans map[int][2]time.Duration
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Since(h.start)
		next.ServeHTTP(w, r)
		t1 := time.Since(h.start)
		rid, ok := strings.CutPrefix(r.Header.Get("X-Request-ID"), "r")
		id, err := strconv.Atoi(rid)
		if !ok || err != nil {
			return
		}
		h.mu.Lock()
		h.spans[id] = [2]time.Duration{t0, t1}
		h.mu.Unlock()
	})
}

// served is one checked response.
type served struct {
	resp   server.SearchResponse
	tuples []core.ResultTuple
}

// httpRun is the outcome of one run over HTTP.
type httpRun struct {
	replies []reply
	answers []*served // nil where the request failed
	start   time.Time // the start of the run
	// wall runs from the start of the run to the last response; cpu and
	// alloc are the process's CPU time and allocation over it.
	wall, cpu time.Duration
	alloc     uint64
	// buckets is the number of radius buckets the examples use.
	buckets int
}

// runHTTP is yelp-http's timed run: a closed loop of one client over
// loopback to the server.NewWith handler.
func runHTTP(in *inputs, st *stack, seconds float64, rep *report) error {
	hr, err := playHTTP(in, st, seconds, false)
	if err != nil {
		return err
	}
	reportHTTP(in, st, hr, rep)
	return nil
}

// playHTTP serves the stack's server, warms it up and plays the request
// stream for seconds. With traced set, the handler is wrapped to time it.
func playHTTP(in *inputs, st *stack, seconds float64, traced bool) (*httpRun, error) {
	var handler http.Handler = st.srv
	var ht *handlerTimes
	if traced {
		ht = &handlerTimes{start: time.Now(), spans: map[int][2]time.Duration{}}
		handler = ht.wrap(st.srv)
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(st.ln) }()
	gen := newLoadGen(st.ln.Addr().String())
	stop := func() error {
		gen.tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-serveErr; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}

	// Warm up: open the connection and run a few examples that are not in
	// the stream, so the measured phase starts on a warm server.
	buckets := warmPartitions(st, in.queries)
	warm, _ := gen.play("w", in.warmBodies, time.Hour, len(in.warmBodies))
	for _, r := range warm {
		if r.err != nil || r.status != http.StatusOK {
			stop()
			return nil, fmt.Errorf("warm-up request failed: status %d, %v", r.status, r.err)
		}
	}

	bodies := make([][]byte, len(in.reqs))
	for i, r := range in.reqs {
		bodies[i] = r.body
	}
	w := openWindow()
	replies, start := gen.play("r", bodies, time.Duration(seconds*float64(time.Second)), math.MaxInt)
	_, cpu, alloc := w.close()
	if err := stop(); err != nil {
		return nil, fmt.Errorf("stop server: %w", err)
	}
	if ht != nil {
		// The handler clock started before the run's; shift it onto the
		// run's.
		shift := start.Sub(ht.start)
		for i, s := range ht.spans {
			replies[i].handlerStart, replies[i].handlerEnd = s[0]-shift, s[1]-shift
		}
	}
	hr := &httpRun{replies: replies, answers: make([]*served, len(replies)), start: start, cpu: cpu, alloc: alloc, buckets: buckets}
	for _, r := range replies {
		hr.wall = max(hr.wall, r.done)
	}
	return hr, nil
}

// reportHTTP checks every response and reports the run's metrics.
func reportHTTP(in *inputs, st *stack, hr *httpRun, rep *report) {
	first := make(map[int]*served, len(in.queries))
	rep.attempted = len(hr.replies)
	lats := make([]float64, len(hr.replies))
	var (
		simSum                      float64
		tuples, hits, ok            int
		hitMS, engineMS, overheadMS []float64
		respBytes                   int
		picks                       = map[string]int{}
	)
	for i, r := range hr.replies {
		req := in.req(i)
		lats[i] = ms(r.done - r.sent)
		a, err := checkReply(in, st, req.uniq, r)
		if err == nil {
			if prev := first[req.uniq]; prev == nil {
				first[req.uniq] = a
			} else if !reflect.DeepEqual(prev.resp.Results, a.resp.Results) {
				err = fmt.Errorf("repeat (X-Cache %s) differs from the first answer", r.cache)
			}
		}
		if err != nil {
			lats[i] = math.Inf(1)
			rep.fail("request %d (example %d): %v", i, req.uniq, err)
			continue
		}
		hr.answers[i] = a
		ok++
		respBytes += len(r.body)
		picks[a.resp.Algorithm]++
		for _, t := range a.tuples {
			simSum += t.Sim
			tuples++
		}
		rtt := ms(r.done - r.sent)
		if r.cache == "hit" {
			hits++
			hitMS = append(hitMS, rtt)
		} else {
			engineMS = append(engineMS, a.resp.ElapsedMS)
			overheadMS = append(overheadMS, rtt-a.resp.ElapsedMS)
		}
	}
	rep.latencies(lats)
	done := float64(ok)
	rep.set("throughput_qps", done/hr.wall.Seconds(), fmt.Sprintf("%d requests in %.2f s", ok, hr.wall.Seconds()))
	rep.set("cpu_ms_per_query", ratio(hr.cpu.Seconds()*1e3, done), "process CPU, server and client")
	rep.set("alloc_mb_per_query", ratio(float64(hr.alloc)/mb, done), "")
	rep.set("avg_sim", ratio(simSum, float64(tuples)), fmt.Sprintf("%d tuples", tuples))
	rep.digest = httpDigest(in, hr)

	rep.set("qcache.hit_ratio", ratio(float64(hits), done), fmt.Sprintf("%d hits of %d; stream repeat share %.2f", hits, ok, yelpRepeatShare))
	rep.set("qcache.hit_ms_p50", median(hitMS), fmt.Sprintf("n=%d", len(hitMS)))
	rep.set("server.overhead_ms_p50", median(overheadMS), fmt.Sprintf("round trip minus elapsed_ms, n=%d misses", len(overheadMS)))
	rep.set("server.response_kb", ratio(float64(respBytes)/1024, done), "")
	rep.set("core.engine_ms_p50", median(engineMS), fmt.Sprintf("elapsed_ms, n=%d misses", len(engineMS)))
	rep.set("core.engine_ms_p90", quantile(engineMS, 0.9), fmt.Sprintf("elapsed_ms, n=%d misses", len(engineMS)))
	rep.set("loadgen.latency_p90_ms", quantile(lats, 0.9), fmt.Sprintf("n=%d, %d beyond", len(lats), beyond(lats, 0.9)))
	rep.set("loadgen.latency_p99_ms", quantile(lats, 0.99), fmt.Sprintf("n=%d, %d beyond", len(lats), beyond(lats, 0.99)))
	rep.extra = append(rep.extra,
		fmt.Sprintf("http: %d of %d requests were cache hits (%.3f ms p50), engine p50 %.3f ms p90 %.3f ms",
			hits, ok, median(hitMS), median(engineMS), quantile(engineMS, 0.9)),
		fmt.Sprintf("Auto picked %v", picks),
		fmt.Sprintf("warm-up: %d requests, %d radius buckets over the %d unique examples", len(in.warmBodies), hr.buckets, len(in.queries)))
	rep.extra = append(rep.extra, fmt.Sprintf("cycle: %d requests sent, %.2f rounds of the %d-request cycle",
		len(hr.replies), float64(len(hr.replies))/float64(len(in.reqs)), len(in.reqs)))
}

// checkReply decodes and checks one response against its example.
func checkReply(in *inputs, st *stack, uniq int, r reply) (*served, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	a := &served{}
	if err := json.Unmarshal(r.body, &a.resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	q := in.queries[uniq]
	algo := core.Choose(st.ds, q, core.Auto)
	if a.resp.Algorithm != algo.String() {
		return nil, fmt.Errorf("algorithm %q, Auto should pick %q", a.resp.Algorithm, algo)
	}
	for i, rt := range a.resp.Results {
		t := core.ResultTuple{Sim: rt.Sim}
		for _, o := range rt.Objects {
			pos, ok := in.ids[o.ID]
			if !ok {
				return nil, fmt.Errorf("tuple %d: unknown object id %d", i, o.ID)
			}
			t.Positions = append(t.Positions, pos)
		}
		a.tuples = append(a.tuples, t)
	}
	if err := checkAnswer(st.ds, q, algo, a.tuples); err != nil {
		return nil, err
	}
	return a, nil
}

// httpDigest hashes the first answer of the first digestQueries unique
// examples, in stream order.
func httpDigest(in *inputs, hr *httpRun) string {
	var samples []sample
	seen := map[int]bool{}
	for i, a := range hr.answers {
		u := in.req(i).uniq
		if a == nil || seen[u] {
			continue
		}
		seen[u] = true
		samples = append(samples, sample{qi: u, res: &core.Result{Tuples: a.tuples}})
	}
	return answerDigest(samples)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
