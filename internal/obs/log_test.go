package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNewLoggerEmitsJSON(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, nil)
	log.Info("request", "request_id", "abc", "status", 200)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%s)", err, buf.String())
	}
	if rec["msg"] != "request" || rec["request_id"] != "abc" || rec["status"] != float64(200) {
		t.Errorf("unexpected record %v", rec)
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	log := NopLogger()
	log.Error("nothing should happen", "k", "v")
	log.With("a", 1).WithGroup("g").Info("still nothing")
}

func TestRequestIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 || strings.ToLower(id) != id {
			t.Fatalf("malformed request id %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Errorf("empty context id = %q", got)
	}
	ctx = WithRequestID(ctx, "deadbeef")
	if got := RequestID(ctx); got != "deadbeef" {
		t.Errorf("round-tripped id = %q", got)
	}
}

func TestResponseRecorder(t *testing.T) {
	rr := httptest.NewRecorder()
	rec := &ResponseRecorder{ResponseWriter: rr, Status: 200}
	rec.WriteHeader(418)
	rec.WriteHeader(500) // only the first status sticks
	if _, err := rec.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if rec.Status != 418 || rec.Bytes != 5 {
		t.Errorf("recorded status=%d bytes=%d", rec.Status, rec.Bytes)
	}

	// implicit 200 when the handler writes without WriteHeader
	rec2 := &ResponseRecorder{ResponseWriter: httptest.NewRecorder(), Status: 200}
	if _, err := rec2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	rec2.WriteHeader(500) // too late; body already started
	if rec2.Status != 200 {
		t.Errorf("implicit status = %d, want 200", rec2.Status)
	}
}
