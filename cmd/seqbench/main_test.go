package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialseq/internal/bench"
)

func TestListExperiments(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"table2-yelp", "table2-gaode", "table3", "fig9-d", "fig9-alpha",
		"fig9-beta", "fig9-scale", "fig10", "fig11", "ablation-partition", "ablation-sampling",
		"ablation-cellnorm", "ablation-bounds", "fig9-m"} {
		if !strings.Contains(out, want) {
			t.Errorf("experiment list missing %q", want)
		}
	}
}

func TestNoArgsListsToo(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "experiments:") {
		t.Error("bare invocation should list experiments")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "zzz"}, &sb); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestBadSizes(t *testing.T) {
	for _, sizes := range []string{"a,b", "-5", ""} {
		var sb strings.Builder
		if err := run([]string{"-exp", "table3", "-sizes", sizes}, &sb); err == nil {
			t.Errorf("sizes %q should fail", sizes)
		}
	}
}

func TestTinyTable2Run(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	err := run([]string{"-exp", "table2-gaode", "-sizes", "300", "-queries", "2", "-budget", "20s"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table II") {
		t.Errorf("output malformed:\n%s", sb.String())
	}
}

func TestPartialRecordsWrittenOnExperimentError(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_partial.json")
	// The heap-profile path is unwritable, so the experiment fails after
	// its measurements are already in the recorder; the records collected
	// so far must still reach the BENCH file.
	var sb strings.Builder
	err := run([]string{"-exp", "table2-gaode", "-sizes", "300", "-queries", "2",
		"-budget", "20s", "-json", out,
		"-memprofile", filepath.Join(dir, "no-such-dir", "mem")}, &sb)
	if err == nil {
		t.Fatal("unwritable profile path should fail the run")
	}
	if !strings.Contains(sb.String(), "partial bench records") {
		t.Errorf("missing partial-write notice:\n%s", sb.String())
	}
	f, rerr := bench.ReadFile(out)
	if rerr != nil {
		t.Fatalf("partial BENCH file should exist and parse: %v", rerr)
	}
	if len(f.Records) == 0 {
		t.Error("partial BENCH file should retain the records collected before the failure")
	}
}

func TestParseSizesSortsAndValidates(t *testing.T) {
	got, err := parseSizes("500, 100,300")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 100 || got[2] != 500 {
		t.Errorf("parseSizes = %v", got)
	}
}

func TestSelectExperiments(t *testing.T) {
	exps := experiments()
	sel, err := selectExperiments(exps, "table3, table2-gaode,table3")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].name != "table3" || sel[1].name != "table2-gaode" {
		names := make([]string, len(sel))
		for i, e := range sel {
			names[i] = e.name
		}
		t.Errorf("selectExperiments = %v, want [table3 table2-gaode] (order kept, dup dropped)", names)
	}
	// "all" selects the whole self-contained suite; experiments needing
	// an input file (replay) and heavy ones (scale10m) stay out.
	wantAll := 0
	for _, e := range exps {
		if !e.needsInput() && !e.heavy() {
			wantAll++
		}
	}
	if wantAll == len(exps) {
		t.Fatal("expected at least one input-requiring or heavy experiment")
	}
	all, err := selectExperiments(exps, "table3,all")
	if err != nil || len(all) != wantAll {
		t.Errorf("'all' should select the self-contained suite: %d, want %d (%v)", len(all), wantAll, err)
	}
	for _, e := range all {
		if e.needsInput() {
			t.Errorf("'all' selected input-requiring experiment %s", e.name)
		}
		if e.heavy() {
			t.Errorf("'all' selected heavy experiment %s", e.name)
		}
	}
	if _, err := selectExperiments(exps, "table3,zzz"); err == nil {
		t.Error("unknown id in a list should fail")
	}
	if _, err := selectExperiments(exps, " , "); err == nil {
		t.Error("empty selection should fail")
	}
}

func TestMultiExpUnknownFails(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "table3,zzz"}, &sb); err == nil {
		t.Error("unknown experiment in a comma list should fail")
	}
}

func TestJSONRecordsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_test.json")
	var sb strings.Builder
	err := run([]string{"-exp", "table2-gaode", "-sizes", "300", "-queries", "2",
		"-budget", "20s", "-seed", "1", "-json", out,
		"-cpuprofile", filepath.Join(dir, "cpu"), "-memprofile", filepath.Join(dir, "mem")}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wrote 3 bench records") {
		t.Errorf("missing record summary line:\n%s", sb.String())
	}
	f, err := bench.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env.Seed != 1 || f.Env.Queries != 2 || f.Env.GoVersion == "" || f.Env.NumCPU == 0 {
		t.Errorf("env header incomplete: %+v", f.Env)
	}
	if len(f.Records) != 3 {
		t.Fatalf("want 3 records (dfs, hsp, lora), got %d", len(f.Records))
	}
	for _, r := range f.Records {
		if r.Experiment != "table2" || r.Family != "Gaode" || r.Size != 300 {
			t.Errorf("record misfiled: %+v", r)
		}
		if r.Completed > 0 && (r.Latency.P99MS <= 0 || r.Latency.MaxMS < r.Latency.P50MS) {
			t.Errorf("record %s: implausible latency %+v", r, r.Latency)
		}
		if len(r.Work) != 14 {
			t.Errorf("record %s: work map has %d counters, want all 14", r, len(r.Work))
		}
	}
	for _, prof := range []string{"cpu.table2-gaode", "mem.table2-gaode"} {
		st, err := os.Stat(filepath.Join(dir, prof))
		if err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty: %v", prof, err)
		}
	}
}
