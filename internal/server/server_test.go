package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/query"
	"spatialseq/internal/testutil"
)

func newTestServer(t *testing.T) (*httptest.Server, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	ds := testutil.RandDataset(rng, 400, 3, 4, 100)
	srv := New(core.NewEngine(ds))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, ds
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	ts, ds := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Objects != ds.Len() || st.Categories != ds.NumCategories() || st.AttrDim != ds.AttrDim() {
		t.Errorf("stats = %+v", st)
	}
}

func postSearch(t *testing.T, ts *httptest.Server, req SearchRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestSearchHappyPath(t *testing.T) {
	ts, ds := newTestServer(t)
	o1 := ds.Object(0)
	o2 := ds.Object(1)
	req := SearchRequest{
		Algorithm: "hsp",
		K:         3,
		Beta:      5,
		Example: []ExampleObject{
			{X: o1.Loc.X, Y: o1.Loc.Y, Category: ds.CategoryName(o1.Category)},
			{X: o2.Loc.X, Y: o2.Loc.Y, Category: ds.CategoryName(o2.Category)},
		},
	}
	resp, body := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Algorithm != "hsp" || sr.Variant != "CSEQ" {
		t.Errorf("response meta = %+v", sr)
	}
	if len(sr.Results) == 0 {
		t.Fatal("expected results")
	}
	for _, r := range sr.Results {
		if len(r.Objects) != 2 {
			t.Errorf("result has %d objects", len(r.Objects))
		}
		if r.Sim <= 0 || r.Sim > 1 {
			t.Errorf("sim = %g", r.Sim)
		}
	}
	// results ordered best-first
	for i := 1; i < len(sr.Results); i++ {
		if sr.Results[i].Sim > sr.Results[i-1].Sim {
			t.Error("results not ordered by similarity")
		}
	}
}

func TestSearchFixedPoint(t *testing.T) {
	ts, ds := newTestServer(t)
	o1 := ds.Object(0)
	o2 := ds.Object(1)
	id := o1.ID
	req := SearchRequest{
		Variant: "cseq-fp",
		K:       3,
		Beta:    5,
		Example: []ExampleObject{
			{X: o1.Loc.X, Y: o1.Loc.Y, Category: ds.CategoryName(o1.Category), FixedID: &id},
			{X: o2.Loc.X, Y: o2.Loc.Y, Category: ds.CategoryName(o2.Category)},
		},
	}
	resp, body := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body = %s", resp.StatusCode, body)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, r := range sr.Results {
		if r.Objects[0].ID != id {
			t.Errorf("result does not honour fixed_id: %+v", r.Objects[0])
		}
	}
}

func TestSearchRejectsBadRequests(t *testing.T) {
	ts, ds := newTestServer(t)
	o1 := ds.Object(0)
	cases := []struct {
		name string
		req  SearchRequest
	}{
		{"too few example objects", SearchRequest{Example: []ExampleObject{{Category: ds.CategoryName(o1.Category)}}}},
		{"unknown category", SearchRequest{Example: []ExampleObject{
			{Category: "nope"}, {Category: "nope"},
		}}},
		{"unknown variant", SearchRequest{Variant: "zzz", Example: []ExampleObject{
			{Category: ds.CategoryName(o1.Category)}, {Category: ds.CategoryName(o1.Category)},
		}}},
		{"unknown algorithm", SearchRequest{Algorithm: "zzz", Example: []ExampleObject{
			{X: 1, Y: 1, Category: ds.CategoryName(o1.Category)}, {X: 2, Y: 2, Category: ds.CategoryName(o1.Category)},
		}}},
		{"bad beta", SearchRequest{Beta: 0.1, Example: []ExampleObject{
			{X: 1, Y: 1, Category: ds.CategoryName(o1.Category)}, {X: 2, Y: 2, Category: ds.CategoryName(o1.Category)},
		}}},
	}
	for _, c := range cases {
		resp, body := postSearch(t, ts, c.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body = %s", c.name, resp.StatusCode, body)
		}
	}
}

// TestSearchBoundsExampleSize: an example of query.MaxM+1 objects is a
// 400 before it is built or searched.
func TestSearchBoundsExampleSize(t *testing.T) {
	ts, ds := newTestServer(t)
	ex := make([]ExampleObject, query.MaxM+1)
	for i := range ex {
		ex[i] = ExampleObject{X: float64(i), Y: float64(i), Category: ds.CategoryName(ds.Object(i).Category)}
	}
	resp, body := postSearch(t, ts, SearchRequest{Example: ex})
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte(strconv.Itoa(query.MaxM))) {
		t.Errorf("%d example objects: status %d, body %s; want 400 naming the bound %d", len(ex), resp.StatusCode, body, query.MaxM)
	}
}

// TestSearchBoundsBody: a /search body is decoded up to maxBodyBytes,
// however it is padded, and one byte more is a 413 with a JSON error.
func TestSearchBoundsBody(t *testing.T) {
	ts, ds := newTestServer(t)
	cat := ds.CategoryName(ds.Object(0).Category)
	req, err := json.Marshal(SearchRequest{K: 2, Example: []ExampleObject{{X: 1, Y: 1, Category: cat}, {X: 5, Y: 5, Category: cat}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		size   int
		status int
	}{
		{maxBodyBytes - 1, http.StatusOK},
		{maxBodyBytes, http.StatusOK},
		{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		body := append(bytes.Repeat([]byte(" "), c.size-len(req)), req...)
		resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, err = out.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status || !json.Valid(out.Bytes()) {
			t.Errorf("%d-byte body: status %d, body %.200s; want %d with JSON", c.size, resp.StatusCode, out.Bytes(), c.status)
		}
	}
}

func TestCategories(t *testing.T) {
	ts, ds := newTestServer(t)
	resp, err := http.Get(ts.URL + "/categories")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cats []CategoryInfo
	if err := json.NewDecoder(resp.Body).Decode(&cats); err != nil {
		t.Fatal(err)
	}
	if len(cats) != ds.NumCategories() {
		t.Fatalf("got %d categories, want %d", len(cats), ds.NumCategories())
	}
	total := 0
	for _, c := range cats {
		if c.Name == "" {
			t.Error("category name missing")
		}
		total += c.Count
	}
	if total != ds.Len() {
		t.Errorf("counts sum to %d, want %d", total, ds.Len())
	}
}

func TestSearchGeoJSONFormat(t *testing.T) {
	ts, ds := newTestServer(t)
	o1, o2 := ds.Object(0), ds.Object(1)
	req := SearchRequest{
		Format: "geojson",
		K:      2,
		Beta:   5,
		Example: []ExampleObject{
			{X: o1.Loc.X, Y: o1.Loc.Y, Category: ds.CategoryName(o1.Category)},
			{X: o2.Loc.X, Y: o2.Loc.Y, Category: ds.CategoryName(o2.Category)},
		},
	}
	resp, body := postSearch(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/geo+json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var fc struct {
		Type     string `json:"type"`
		Features []any  `json:"features"`
	}
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatal(err)
	}
	if fc.Type != "FeatureCollection" || len(fc.Features) == 0 {
		t.Errorf("unexpected GeoJSON: %s", body)
	}

	req.Format = "zzz"
	resp, _ = postSearch(t, ts, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status = %d", resp.StatusCode)
	}
}

func TestSearchCacheHit(t *testing.T) {
	ts, ds := newTestServer(t)
	o1, o2 := ds.Object(0), ds.Object(1)
	req := SearchRequest{
		Algorithm: "hsp",
		K:         3,
		Beta:      5,
		Example: []ExampleObject{
			{X: o1.Loc.X, Y: o1.Loc.Y, Category: ds.CategoryName(o1.Category)},
			{X: o2.Loc.X, Y: o2.Loc.Y, Category: ds.CategoryName(o2.Category)},
		},
	}
	body, _ := json.Marshal(req)
	first, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	if got := first.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	second, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if got := second.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
}

func TestSnap(t *testing.T) {
	ts, ds := newTestServer(t)
	o := ds.Object(3)
	body, _ := json.Marshal(SnapRequest{X: o.Loc.X, Y: o.Loc.Y, K: 3})
	resp, err := http.Post(ts.URL+"/snap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var sr SnapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 3 {
		t.Fatalf("got %d results", len(sr.Results))
	}
	if sr.Results[0].Dist != 0 || sr.Results[0].Object.ID != o.ID {
		t.Errorf("closest snap should be the clicked object itself: %+v", sr.Results[0])
	}
}

func TestSnapCategoryFilter(t *testing.T) {
	ts, ds := newTestServer(t)
	o := ds.Object(3)
	cat := ds.CategoryName(o.Category)
	body, _ := json.Marshal(SnapRequest{X: o.Loc.X, Y: o.Loc.Y, Category: cat, K: 4})
	resp, err := http.Post(ts.URL+"/snap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SnapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	for _, r := range sr.Results {
		if r.Object.Category != cat {
			t.Errorf("filter violated: %+v", r.Object)
		}
	}
}

// TestSnapBoundsK: /snap answers k up to query.MaxK, the limit /search
// applies, with min(n, k) objects, and rejects a larger k before it
// searches.
func TestSnapBoundsK(t *testing.T) {
	ts, ds := newTestServer(t)
	for _, tc := range []struct{ k, status, results int }{
		{query.MaxK, http.StatusOK, min(ds.Len(), query.MaxK)},
		{query.MaxK + 1, http.StatusBadRequest, 0},
	} {
		body, _ := json.Marshal(SnapRequest{X: 50, Y: 50, K: tc.k})
		resp, err := http.Post(ts.URL+"/snap", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr struct {
			Results []SnapResult `json:"results"`
			Error   string       `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status || len(sr.Results) != tc.results {
			t.Errorf("k %d: status %d with %d results, want %d with %d", tc.k, resp.StatusCode, len(sr.Results), tc.status, tc.results)
		}
		if tc.status == http.StatusBadRequest && sr.Error == "" {
			t.Errorf("k %d: the 400 carries no JSON error", tc.k)
		}
	}
}

func TestSnapRejectsBadInput(t *testing.T) {
	ts, _ := newTestServer(t)
	// unknown category
	body, _ := json.Marshal(SnapRequest{Category: "zzz"})
	resp, err := http.Post(ts.URL+"/snap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown category status = %d", resp.StatusCode)
	}
	// GET not allowed
	resp, err = http.Get(ts.URL + "/snap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}
}

func TestSearchRejectsGet(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSearchRejectsMalformedJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSearchRejectsUnknownFields(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/search", "application/json",
		bytes.NewReader([]byte(`{"bogus_field": 1, "example": []}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}
