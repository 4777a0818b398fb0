package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// Handler exposes a registry and tracer over HTTP:
//
//	/metrics        plaintext metric exposition (prometheus text style)
//	/trace          the retained trace ring as JSON (?n=LIMIT keeps the
//	                newest LIMIT events)
//	/debug/pprof/*  the standard net/http/pprof profiles
//
// cmd/oasisd mounts it under the -obs-addr listener; anything that can
// speak HTTP (curl, a scraper, go tool pprof) can read it.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "oasis observability endpoints:\n  /metrics\n  /trace?n=100\n  /debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeRendered(w, "text/plain; version=0.0.4; charset=utf-8", reg.WriteText)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		limit := 0
		if n := r.URL.Query().Get("n"); n != "" {
			v, err := strconv.Atoi(n)
			if err != nil || v < 0 {
				http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
				return
			}
			limit = v
		}
		writeRendered(w, "application/json; charset=utf-8", func(w io.Writer) error { return tr.WriteJSON(w, limit) })
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeRendered renders a response body in memory and writes it once. A
// render error can then still become a clean 500, and a client that
// hangs up mid-body is simply dropped: answering its failed Write with
// http.Error would be a second WriteHeader ("superfluous
// response.WriteHeader call" in the daemon's log).
func writeRendered(w http.ResponseWriter, contentType string, render func(io.Writer) error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(buf.Bytes()) //nolint:errcheck // the client went away; nobody is left to tell
}
