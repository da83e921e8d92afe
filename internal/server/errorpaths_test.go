package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/obs"
	"spatialseq/internal/testutil"
)

// TestSearchErrorPaths walks every /search rejection class — malformed
// body, unknown algorithm, out-of-range alpha/beta/k/grid — and asserts
// both halves of the error contract: a 400 with a structured JSON error
// body, and the per-endpoint error counter advancing once per rejection.
func TestSearchErrorPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ds := testutil.RandDataset(rng, 100, 3, 4, 100)
	reg := obs.NewRegistry()
	srv := NewWith(core.NewEngine(ds), Config{Metrics: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cat := ds.CategoryName(ds.Category(0))
	ex := fmt.Sprintf(`[{"x":1,"y":2,"category":%q},{"x":3,"y":4,"category":%q}]`, cat, cat)
	cases := []struct {
		name, body string
	}{
		{"malformed body", `{"algorithm":`},
		{"trailing garbage", `{"example":` + ex + `} extra`},
		{"unknown field", `{"zzz":1,"example":` + ex + `}`},
		{"unknown algorithm", `{"algorithm":"quantum","example":` + ex + `}`},
		{"unknown variant", `{"variant":"zzz","example":` + ex + `}`},
		{"unknown format", `{"format":"xml","example":` + ex + `}`},
		{"alpha above range", `{"alpha":7,"example":` + ex + `}`},
		{"alpha NaN-ish", `{"alpha":-0.5,"example":` + ex + `}`},
		{"beta below one", `{"beta":0.2,"example":` + ex + `}`},
		{"negative k", `{"k":-3,"example":` + ex + `}`},
		{"k above ceiling", `{"k":10001,"example":` + ex + `}`},
		{"grid above ceiling", `{"grid_d":2000,"example":` + ex + `}`},
		{"single example object", `{"example":[{"x":1,"y":2,"category":` + fmt.Sprintf("%q", cat) + `}]}`},
		{"unknown category", `{"example":[{"category":"nope"},{"category":"nope"}]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/search", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var er errorResponse
		derr := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if derr != nil || er.Error == "" {
			t.Errorf("%s: expected structured JSON error body, decode err=%v", tc.name, derr)
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	text := buf.String()
	want := fmt.Sprintf(`spatialseq_http_requests_total{endpoint="/search",code="400"} %d`, len(cases))
	if !strings.Contains(text, want+"\n") {
		t.Errorf("metrics output missing %q", want)
	}
	if strings.Contains(text, `spatialseq_http_requests_total{endpoint="/search",code="200"}`) {
		t.Error("no search succeeded, yet a 200 counter exists")
	}
}

// TestSearchParamCeilings pins the request-size ceilings at the HTTP
// boundary: the largest accepted k and grid resolution pass validation,
// one past them is rejected. (The ceilings exist so untrusted requests
// cannot make the engine materialise a billion-bucket grid or a
// billion-entry heap.)
func TestSearchParamCeilings(t *testing.T) {
	ts, ds := newTestServer(t)
	o1, o2 := ds.Object(0), ds.Object(1)
	mk := func(k, gridD int) SearchRequest {
		return SearchRequest{
			Algorithm: "hsp",
			K:         k,
			Beta:      5,
			GridD:     gridD,
			Example: []ExampleObject{
				{X: o1.Loc.X, Y: o1.Loc.Y, Category: ds.CategoryName(o1.Category)},
				{X: o2.Loc.X, Y: o2.Loc.Y, Category: ds.CategoryName(o2.Category)},
			},
		}
	}
	if resp, body := postSearch(t, ts, mk(10000, 1024)); resp.StatusCode != http.StatusOK {
		t.Errorf("max in-range params rejected: status %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := postSearch(t, ts, mk(10001, 4)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k above ceiling: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSearch(t, ts, mk(3, 1025)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("grid above ceiling: status %d, want 400", resp.StatusCode)
	}
}

// TestSearchBudgetExpiredReturns504 pins the status of a request whose
// time budget runs out: a server whose Timeout expires before the search
// starts answers 504 Gateway Timeout with a JSON error body, distinct
// from the 400 of a bad query.
func TestSearchBudgetExpiredReturns504(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := testutil.RandDataset(rng, 400, 3, 4, 100)
	ts := httptest.NewServer(NewWith(core.NewEngine(ds), Config{Timeout: time.Nanosecond}))
	defer ts.Close()

	resp, body := postSearch(t, ts, searchReq(ds))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body = %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("504 body %q is not a JSON error (%v)", body, err)
	}
}
