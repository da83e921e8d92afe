package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/testutil"
)

// The fuzz server is shared across iterations (the engine is stateless
// between requests apart from the query cache, which is itself
// concurrency-safe); building a dataset per input would drown the fuzzer.
var (
	fuzzOnce sync.Once
	fuzzTS   *httptest.Server
)

func fuzzServer() *httptest.Server {
	fuzzOnce.Do(func() {
		rng := rand.New(rand.NewSource(7))
		ds := testutil.RandDataset(rng, 60, 3, 4, 100)
		srv := NewWith(core.NewEngine(ds), Config{Timeout: 250 * time.Millisecond})
		fuzzTS = httptest.NewServer(srv)
	})
	return fuzzTS
}

// FuzzServerDecode throws arbitrary request bodies at the two POST
// endpoints. The contract under fuzzing: the server never panics (a panic
// kills the shared httptest server and every later request fails), always
// answers 200, 400 or 504, or 413 for a body longer than maxBodyBytes,
// and always produces a JSON body — malformed input must come back as a
// structured error, never as a raw stack trace or an empty reply.
func FuzzServerDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"algorithm":"hsp","k":3,"beta":5,"example":[{"x":1,"y":2,"category":"c0"},{"x":3,"y":4,"category":"c1"}]}`))
	f.Add([]byte(`{"algorithm":"zzz","example":[{"category":"c0"},{"category":"c0"}]}`))
	f.Add([]byte(`{"k":-5,"alpha":7,"beta":0.01,"example":[{"category":"c0"},{"category":"c1"}]}`))
	f.Add([]byte(`{"k":1000000000,"grid_d":1000000000,"example":[{"category":"c0"},{"category":"c1"}]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`{"x":1e999}`))
	f.Add([]byte(`{"category":"c0","k":3}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		ts := fuzzServer()
		for _, path := range []string{"/search", "/snap"} {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: transport error (did a previous input kill the server?): %v", path, err)
			}
			var buf bytes.Buffer
			_, rerr := buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatalf("%s: reading response: %v", path, rerr)
			}
			switch {
			case resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusBadRequest,
				resp.StatusCode == http.StatusGatewayTimeout:
			case resp.StatusCode == http.StatusRequestEntityTooLarge && len(body) > maxBodyBytes:
			default:
				t.Fatalf("%s: status %d for body %q", path, resp.StatusCode, body)
			}
			if !json.Valid(buf.Bytes()) {
				t.Fatalf("%s: non-JSON response %q for body %q", path, buf.Bytes(), body)
			}
		}
	})
}
