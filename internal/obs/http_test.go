package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerServesMetricsTraceAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Add(3)
	tr := NewTracer(16)
	tr.Record(TraceEvent{Kind: "activate", Service: "login", Subject: "alice", Outcome: "ok"})
	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close() //nolint:errcheck
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 3") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get("/trace?n=10")
	if code != 200 {
		t.Fatalf("/trace = %d", code)
	}
	var dump struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Kind    string `json:"kind"`
			Subject string `json:"subject"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("/trace not JSON: %v\n%s", err, body)
	}
	if dump.Total != 1 || len(dump.Events) != 1 || dump.Events[0].Subject != "alice" {
		t.Errorf("/trace dump = %+v", dump)
	}
	if code, _ := get("/trace?n=bogus"); code != 400 {
		t.Errorf("/trace?n=bogus = %d, want 400", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Errorf("/ = %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
}

// hangupWriter is a client that went away: every body write fails.
type hangupWriter struct {
	header       http.Header
	writeHeaders int
}

func (w *hangupWriter) Header() http.Header { return w.header }
func (w *hangupWriter) WriteHeader(int)     { w.writeHeaders++ }
func (w *hangupWriter) Write([]byte) (int, error) {
	if w.writeHeaders == 0 {
		w.WriteHeader(http.StatusOK) // what net/http does on the first Write
	}
	return 0, errors.New("client hung up")
}

// TestHandlerFailedWriteIsNotAnsweredTwice pins the fix for the
// "superfluous response.WriteHeader" log line: a body write that fails
// must not be followed by an http.Error on the same response.
func TestHandlerFailedWriteIsNotAnsweredTwice(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	h := Handler(reg, NewTracer(4))
	for _, path := range []string{"/metrics", "/trace"} {
		w := &hangupWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.writeHeaders != 1 {
			t.Errorf("%s: %d WriteHeader calls on a failed write, want 1", path, w.writeHeaders)
		}
	}
}
