package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialseq/internal/core"
	"spatialseq/internal/query"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

// pinned are the input fingerprints of seed 1. A change to the corpus
// or example generators (internal/synth, internal/workload) changes
// them: such a change alters the benchmark's inputs, so its timings are
// not comparable with the parent's.
var pinned = map[string]string{
	"gaode-lora-scales": "35c3547ed6add0c1",
	"yelp-http":         "5cfaebc7e3945189",
}

func TestFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the full corpora")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			a, err := makeInputs(sp, 1, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if got := a.fingerprint(); got != pinned[sp.name] {
				t.Errorf("seed 1 fingerprint %s, pinned %s: the generated inputs changed", got, pinned[sp.name])
			}
			b, err := makeInputs(sp, 1, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if a.fingerprint() != b.fingerprint() {
				t.Errorf("seed 1 gave fingerprints %s and %s", a.fingerprint(), b.fingerprint())
			}
			c, err := makeInputs(sp, 2, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if c.dataSum != a.dataSum || c.streamSum == a.streamSum {
				t.Errorf("seed 2 changed the corpus or repeated the stream of seed 1")
			}
		})
	}
}

// runTiny runs one workload on a tiny corpus and returns its stdout
// and the parsed result line.
func runTiny(t *testing.T, workload string, trace string, dir string) (string, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-workload", workload, "-seed", "3", "-seconds", "0.5", "-trace", trace, "-dir", dir}
	if code := run(args, 5000, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	return out.String(), res
}

func checkMetrics(t *testing.T, out string, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
		}
		if !strings.Contains(out, d.name) {
			t.Errorf("metric %s is not printed", d.name)
		}
	}
}

func TestTimedRunTiny(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			out, res := runTiny(t, sp.name, "0", t.TempDir())
			checkMetrics(t, out, res, endToEnd)
			for _, d := range endToEnd {
				if v := res.Metrics[d.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", d.name, v)
				}
			}
		})
	}
}

func TestTracedRunTiny(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			dir := t.TempDir()
			out, res := runTiny(t, sp.name, "1", dir)
			checkMetrics(t, out, res, perLayer)
			spans := readSpans(t, filepath.Join(dir, "spans", sp.name+".jsonl"))
			checkSpanTimes(t, spans)

			v := func(name string) float64 { return res.Metrics[name].Value }
			if v("simil.candidates_per_query") <= 0 || v("partition.distinct_radii") < 1 {
				t.Errorf("no candidates or partitions traced")
			}
			switch sp.algo {
			case core.LORA:
				if v("lora.cell_tuples_per_query") <= 0 || v("hsp.tuples_per_query") != 0 {
					t.Errorf("LORA workload: lora.cell_tuples %v, hsp.tuples %v", v("lora.cell_tuples_per_query"), v("hsp.tuples_per_query"))
				}
			default:
				if v("hsp.tuples_per_query") <= 0 || v("sched.cpu_per_wall") != 0 {
					t.Errorf("HSP workload: hsp.tuples %v, sched.cpu_per_wall %v", v("hsp.tuples_per_query"), v("sched.cpu_per_wall"))
				}
			}
			if sp.http && v("core.engine_ms_p50") <= 0 {
				t.Errorf("yelp-http: no engine time on misses")
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	return spans
}

// checkSpanTimes checks that every span is well formed and that, per
// root span, the self times of its tree add up to its wall time.
func checkSpanTimes(t *testing.T, spans []span) {
	t.Helper()
	self := selfTimes(spans)
	rootOf := map[int]int{}
	sum := map[int]int64{}
	for i, s := range spans {
		if s.End < s.Start || self[i] < 0 {
			t.Fatalf("span %+v: self time %d", s, self[i])
		}
		root := s.ID
		if s.Parent != 0 {
			p := spans[s.Parent-1]
			if p.Query != s.Query || s.Start < p.Start || s.End > p.End {
				t.Fatalf("span %+v lies outside its parent %+v", s, p)
			}
			root = rootOf[s.Parent]
		}
		rootOf[s.ID] = root
		sum[root] += self[i]
	}
	for id, total := range sum {
		r := spans[id-1]
		if total != r.End-r.Start {
			t.Errorf("query %d: layer times add up to %d ns, wall time %d ns", r.Query, total, r.End-r.Start)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "query", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "c", ID: 4, Parent: 3, Start: 25, End: 35},
	}
	want := []int64{60, 20, 20, 10}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

// TestCheckAnswerRejects makes sure the answer checks catch broken
// answers, not just pass good ones.
func TestCheckAnswerRejects(t *testing.T) {
	ds := synth.MustGenerate(synth.GaodeLike(3000, 5))
	qs, err := workload.Generate(ds, workload.Config{
		Count: 3, M: tupleSize, Mode: workload.DistanceBounded, Scale: 40,
		Params: query.DefaultParams(), Variant: query.CSEQ, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ds)
	for _, q := range qs {
		res, err := search(eng, q, core.HSP, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkAnswer(ds, q, core.HSP, res.Tuples); err != nil {
			t.Fatalf("good answer rejected: %v", err)
		}
		if len(res.Tuples) < 2 {
			continue
		}
		clone := func() []core.ResultTuple {
			out := make([]core.ResultTuple, len(res.Tuples))
			for i, tu := range res.Tuples {
				out[i] = core.ResultTuple{Positions: append([]int32(nil), tu.Positions...), Sim: tu.Sim}
			}
			return out
		}
		broken := map[string][]core.ResultTuple{}
		b := clone()
		b[0].Sim += 1e-6
		broken["similarity"] = b
		b = clone()
		b[0], b[1] = b[1], b[0]
		if b[0].Sim != b[1].Sim {
			broken["order"] = b
		}
		b = clone()
		b[1].Positions[1] = b[1].Positions[0]
		broken["repeated object"] = b
		b = clone()
		broken["dropped tuple"] = b[:len(b)-1]
		b = clone()
		b[1] = b[0]
		broken["duplicate tuple"] = b
		for what, tuples := range broken {
			if checkAnswer(ds, q, core.HSP, tuples) == nil {
				t.Errorf("answer with a broken %s passed", what)
			}
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads, the benchmark has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s, want %s", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
