package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// searchWithID posts a search stamped with a caller-chosen request ID, so
// the test can address the retained trace afterwards.
func searchWithID(t *testing.T, url, id string, req SearchRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, url+"/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-ID", id)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestDebugTraceChromeJSON(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	const id = "trace-test-1"
	if resp := searchWithID(t, ts.URL, id, searchReq(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	resp, body := getBody(t, ts.URL+"/debug/trace/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	var tracef struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(body, &tracef); err != nil {
		t.Fatalf("not Chrome trace JSON: %v", err)
	}
	if len(tracef.TraceEvents) == 0 || tracef.DisplayTimeUnit != "ms" {
		t.Fatalf("malformed trace: %d events, unit %q", len(tracef.TraceEvents), tracef.DisplayTimeUnit)
	}
	names := make(map[string]bool)
	for _, ev := range tracef.TraceEvents {
		if ev.Ph == "X" {
			names[ev.Name] = true
		}
	}
	for _, want := range []string{"search", "hsp.candidates", "hsp.dfs"} {
		if !names[want] {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
}

func TestDebugTraceHTMLTimeline(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	const id = "trace-test-html"
	if resp := searchWithID(t, ts.URL, id, searchReq(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	resp, body := getBody(t, ts.URL+"/debug/trace/"+id+"?format=html")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	page := string(body)
	for _, want := range []string{"trace " + id, "hsp.dfs", "timeline", "class=bar"} {
		if !strings.Contains(page, want) {
			t.Errorf("timeline page missing %q", want)
		}
	}
}

func TestDebugTraceErrors(t *testing.T) {
	ts, _, _ := newFlightTestServer(t)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/debug/trace/unknown-but-valid", http.StatusNotFound},
		{"/debug/trace/", http.StatusBadRequest},
		{"/debug/trace/bad!id", http.StatusBadRequest},
		{"/debug/trace/unknown-but-valid?format=xml", http.StatusNotFound},
	} {
		if resp, body := getBody(t, ts.URL+tc.path); resp.StatusCode != tc.want {
			t.Errorf("GET %s: status = %d, want %d: %s", tc.path, resp.StatusCode, tc.want, body)
		}
	}
	// Unknown format on an existing trace is the caller's error, not ours.
	ts2, ds, _ := newFlightTestServer(t)
	const id = "trace-test-fmt"
	searchWithID(t, ts2.URL, id, searchReq(ds))
	if resp, _ := getBody(t, ts2.URL+"/debug/trace/"+id+"?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status = %d, want 400", resp.StatusCode)
	}
}

// TestDebugQueriesLinksTraces pins the /debug/queries HTML integration:
// rows of span-retaining records link to their trace page and show the
// imbalance ratio column.
func TestDebugQueriesLinksTraces(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	const id = "trace-test-link"
	if resp := searchWithID(t, ts.URL, id, searchReq(ds)); resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	_, body := getBody(t, ts.URL+"/debug/queries?format=html")
	page := string(body)
	for _, want := range []string{
		"<th>imbalance</th>",
		`<a href="/debug/trace/` + id + `?format=html">trace</a>`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("debug page missing %q", want)
		}
	}
}

// TestSkewInStatsAndMetrics checks the skew surface: include_stats
// responses carry the report and /metrics exposes the histograms.
func TestSkewInStatsAndMetrics(t *testing.T) {
	ts, ds, _ := newFlightTestServer(t)
	req := searchReq(ds)
	req.IncludeStats = true
	resp, body := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d: %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Stats == nil || sr.Stats.Skew == nil {
		t.Fatalf("skew report missing from include_stats response: %s", body)
	}
	if sr.Stats.Skew.Workers < 1 || sr.Stats.Skew.ImbalanceRatio < 1 {
		t.Errorf("implausible skew report: %+v", sr.Stats.Skew)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	text := string(body)
	for _, want := range []string{
		"spatialseq_spans_dropped_total 0",
		`spatialseq_subspace_imbalance_ratio_count{algorithm="hsp"} 1`,
		`spatialseq_span_critical_path_seconds_count{algorithm="hsp"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestServedSkewMatchesFlightRecord: the engine computes a query's skew
// report once, and the server's include_stats answer and the flight
// record it retains carry that same report.
func TestServedSkewMatchesFlightRecord(t *testing.T) {
	ts, ds, rec := newFlightTestServer(t)
	req := searchReq(ds)
	req.IncludeStats = true
	resp, body := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "bypass" {
		t.Fatalf("search status = %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	recent := rec.Recent(1)
	if len(recent) != 1 || recent[0].Skew == nil || sr.Stats == nil || sr.Stats.Skew == nil {
		t.Fatalf("no skew to compare: records %+v, response %s", recent, body)
	}
	if *sr.Stats.Skew != *recent[0].Skew {
		t.Errorf("include_stats skew %+v, flight record skew %+v", *sr.Stats.Skew, *recent[0].Skew)
	}
}
