package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"spatialseq/internal/algo/lora"
	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/server"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

// Shared query settings: CSEQ with m = 3 and the paper's defaults
// (k = 5, alpha = 0.5, beta = 1.5).
const tupleSize = 3

// Workload sizes. A closed loop that finishes its pool cycles through it
// again: the engine caches no results, so a repeat costs what the first
// pass did.
const (
	gaodePOIs = 200000
	yelpPOIs  = 77444

	// scalesPerStep is the gaode-lora-scales pool per scale target: a run
	// of 50 s at 10-15 queries/s goes round the 300-example cycle about
	// twice, so every run sends the same examples in the same order.
	scalesPerStep = 50
	warmQueries   = 6 // untimed warm-up examples, never measured

	// yelpDistinct is the number of distinct examples in yelp-http's
	// cycle of requests: enough more than the query cache's 1024 entries
	// that when the cycle comes round again its examples have been
	// evicted. A run of 50 s at 30-45 requests/s goes round it 1.0-1.5
	// times, so every run sends almost the same requests; runs over the
	// first part of a longer shuffled stream spread by 18 % in CPU time
	// per request, through the few examples that take seconds.
	yelpDistinct = 1100
	// yelpRepeatShare is the share of requests that repeat an earlier
	// one, giving the query cache real hits while the median and the
	// tail stay on engine misses.
	yelpRepeatShare = 0.25
	// yelpRepeatWindow is how far back a repeat may reach, in distinct
	// examples: well inside the query cache, so a repeat is a hit, and
	// short enough that a repeat does not keep its example cached until
	// the cycle comes round (with 256, 31 % of requests hit).
	yelpRepeatWindow = 64
)

// corpusSeed fixes each workload's corpus and its examples in a fixed
// order. Like a real dataset and query log, they are part of the
// workload's definition; the run's seed picks where in that order a run
// starts. Fresh example draws per seed moved gaode-lora-scales'
// allocation per query by 19 % (IQR over five seeds).
const corpusSeed = 1

// scaleTargets is the Fig. 9(f) example-scale sweep, in kilometres.
var scaleTargets = []float64{2, 4, 8, 16, 32, 64}

// spec is one workload: its corpus, how its examples are drawn, and
// how queries reach the program.
type spec struct {
	name string
	// corpus returns the synthetic corpus; pois overrides its size when
	// positive (tiny corpora for tests).
	corpus func(pois int) synth.Config
	algo   core.Algorithm
	// parallelism is the algorithm's Parallelism option.
	parallelism int
	// http sends requests over loopback to the server instead of
	// calling the engine in-process.
	http bool
}

var specs = []spec{
	{
		name:        "gaode-lora-scales",
		corpus:      gaodeCorpus,
		algo:        core.LORA,
		parallelism: 2,
	},
	{
		name:   "yelp-http",
		corpus: yelpCorpus,
		algo:   core.Auto,
		http:   true,
	},
}

func gaodeCorpus(pois int) synth.Config {
	if pois <= 0 {
		pois = gaodePOIs
	}
	return synth.GaodeLike(pois, corpusSeed)
}

func yelpCorpus(pois int) synth.Config {
	if pois <= 0 {
		pois = yelpPOIs
	}
	return synth.YelpLike(pois, corpusSeed)
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// options returns the engine options of a timed query.
func (s spec) options() core.Options {
	return core.Options{LORA: lora.Options{Parallelism: s.parallelism}}
}

// request is one request of yelp-http's stream.
type request struct {
	uniq int    // index of its example in inputs.queries
	body []byte // encoded before timing starts
}

// inputs is everything a run feeds the program, generated from the seed
// before any timing starts.
type inputs struct {
	dataPath string
	pois     int
	// ids maps object IDs to dataset positions (yelp-http only: the
	// server answers with IDs).
	ids map[int64]int32
	// warm are untimed warm-up examples, distinct from the measured ones.
	warm []*query.Query
	// queries is gaode-lora-scales' measured pool, in the seed's order;
	// on yelp-http it holds the unique examples the requests refer to.
	queries []*query.Query
	// warmBodies and reqs are yelp-http's encoded requests.
	warmBodies [][]byte
	reqs       []request

	dataSum, streamSum string
}

// req returns yelp-http's request i: the requests repeat in a cycle.
func (in *inputs) req(i int) request { return in.reqs[i%len(in.reqs)] }

// fingerprint identifies the inputs: the dataset file and the query or
// request stream. A change to the generators shows up here.
func (in *inputs) fingerprint() string {
	h := sha256.Sum256([]byte(in.dataSum + in.streamSum))
	return hex.EncodeToString(h[:8])
}

// makeInputs generates the corpus, writes it to dir, and draws the
// query or request stream from seed.
func makeInputs(sp spec, seed int64, pois int, dir string) (*inputs, error) {
	ds, err := synth.Generate(sp.corpus(pois))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{
		dataPath: filepath.Join(dir, sp.name+".bin"),
		pois:     ds.Len(),
	}
	if err := dataset.WriteBinaryFile(in.dataPath, ds); err != nil {
		return nil, fmt.Errorf("write corpus: %w", err)
	}
	raw, err := os.ReadFile(in.dataPath)
	if err != nil {
		return nil, err
	}
	in.dataSum = hashHex(raw)
	if sp.http {
		in.ids = make(map[int64]int32, ds.Len())
		for i := 0; i < ds.Len(); i++ {
			in.ids[ds.Object(i).ID] = int32(i)
		}
	}

	// The examples are a fixed draw (from corpusSeed) too; the run's seed
	// decides where in their fixed order a run starts.
	rng := rand.New(rand.NewSource(seed))
	if sp.http {
		err = in.drawRequests(ds, rng)
	} else {
		err = in.drawScales(ds, rng)
	}
	if err != nil {
		return nil, err
	}

	h := sha256.New()
	for _, q := range append(append([]*query.Query(nil), in.warm...), in.queries...) {
		b, err := encodeQuery(ds, q)
		if err != nil {
			return nil, err
		}
		h.Write(b)
	}
	var buf [8]byte
	for _, r := range in.reqs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.uniq))
		h.Write(buf[:])
	}
	in.streamSum = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// drawScales draws gaode-lora-scales' closed-loop pool: a fixed log of
// rounds, each sending one example of every scale in a shuffled order,
// so any stretch of it covers the sweep evenly; rng picks where in the
// log a run starts. The first example of each scale warms up. A seeded
// shuffle of the whole log instead moved the partition-cache misses of
// a run by 14 % (IQR over 200 seeds), and the allocation per query with
// them.
func (in *inputs) drawScales(ds *dataset.Dataset, rng *rand.Rand) error {
	sets, err := workload.ScaledExamples(ds, scalesPerStep+1, tupleSize, query.DefaultParams(), scaleTargets, corpusSeed+1)
	if err != nil {
		return fmt.Errorf("draw scaled examples: %w", err)
	}
	cycleRng := rand.New(rand.NewSource(corpusSeed + 2))
	order := append([]float64(nil), scaleTargets...)
	var cycle []*query.Query
	for i := 1; i <= scalesPerStep; i++ {
		cycleRng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, t := range order {
			cycle = append(cycle, sets[t][i])
		}
	}
	for _, t := range scaleTargets {
		in.warm = append(in.warm, sets[t][0])
	}
	start := rng.Intn(len(cycle))
	in.queries = append(cycle[start:], cycle[:start]...)
	return nil
}

// drawRequests draws yelp-http's requests: a fixed cycle of
// yelpDistinct examples in which one request in four repeats one of the
// yelpRepeatWindow distinct examples before it. rng picks where in the
// cycle a run starts.
func (in *inputs) drawRequests(ds *dataset.Dataset, rng *rand.Rand) error {
	qs, err := workload.Generate(ds, workload.Config{
		Count:      warmQueries + yelpDistinct,
		M:          tupleSize,
		Mode:       workload.Random,
		Params:     query.DefaultParams(),
		Variant:    query.CSEQ,
		AttrJitter: 0.1, // seqbench's Yelp jitter
		LocJitter:  0.3,
		Seed:       corpusSeed + 1,
	})
	if err != nil {
		return fmt.Errorf("draw examples: %w", err)
	}
	in.warm, in.queries = qs[:warmQueries], qs[warmQueries:]
	for _, q := range in.warm {
		b, err := encodeQuery(ds, q)
		if err != nil {
			return err
		}
		in.warmBodies = append(in.warmBodies, b)
	}
	bodies := make([][]byte, len(in.queries))
	for i, q := range in.queries {
		if bodies[i], err = encodeQuery(ds, q); err != nil {
			return err
		}
	}
	repeats := int(math.Round(yelpDistinct * yelpRepeatShare / (1 - yelpRepeatShare)))
	n := yelpDistinct + repeats
	cycleRng := rand.New(rand.NewSource(corpusSeed + 2))
	repeat := make([]bool, n)
	for _, i := range cycleRng.Perm(n - 1)[:repeats] {
		repeat[i+1] = true
	}
	cycle := make([]request, 0, n)
	fresh := 0
	for i := 0; i < n; i++ {
		uniq := fresh
		if repeat[i] {
			lo := max(fresh-yelpRepeatWindow, 0)
			uniq = lo + cycleRng.Intn(fresh-lo)
		} else {
			fresh++
		}
		cycle = append(cycle, request{uniq: uniq, body: bodies[uniq]})
	}
	start := rng.Intn(n)
	in.reqs = append(cycle[start:], cycle[:start]...)
	return nil
}

// encodeQuery renders q as the /search request body. It is also the
// canonical encoding the stream fingerprint hashes: Go's JSON floats
// round-trip exactly.
func encodeQuery(ds *dataset.Dataset, q *query.Query) ([]byte, error) {
	req := server.SearchRequest{K: q.Params.K, Alpha: q.Params.Alpha, Beta: q.Params.Beta}
	for d, cat := range q.Example.Categories {
		req.Example = append(req.Example, server.ExampleObject{
			X:        q.Example.Locations[d].X,
			Y:        q.Example.Locations[d].Y,
			Category: ds.CategoryName(cat),
			Attrs:    q.Example.Attrs[d],
		})
	}
	return json.Marshal(req)
}

func hashHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
