package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Server is the live diagnostics endpoint: Prometheus-text /metrics, JSONL
// /trace, the worker×worker traffic matrix on /comm, /mem, /heat and /spans,
// recorded runs on /runs, and net/http/pprof under /debug/pprof/. It is opt-in (the -debug-addr flag
// on cmd/cyclops-run and cmd/cyclops-bench) and serves while supersteps
// advance, so a stuck or slow run can be inspected instead of silently
// spinning.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// formatVariant is one rendering a handler offers under ?format=.
type formatVariant struct {
	contentType string
	render      func(w http.ResponseWriter) error
}

// serveFormat is the shared ?format= content negotiation for the diagnostic
// endpoints (/comm, /mem, /spans, /heat). The empty format aliases "json";
// an unknown format is a 400 naming the accepted ones.
func serveFormat(w http.ResponseWriter, r *http.Request, variants map[string]formatVariant) {
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	v, ok := variants[format]
	if !ok {
		names := make([]string, 0, len(variants))
		for name := range variants {
			names = append(names, name)
		}
		sort.Strings(names)
		http.Error(w, fmt.Sprintf("unknown format %q (want %s)", format, strings.Join(names, ", ")),
			http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", v.contentType)
	v.render(w) //nolint:errcheck // best-effort HTTP response
}

// Sources is what the diagnostics server reads from. Any field may be left
// zero; the corresponding endpoints then report 404.
type Sources struct {
	// Log backs /metrics (Prometheus text), /trace (the JSONL narration),
	// /comm (the worker×worker traffic matrix), /mem (per-superstep memory
	// telemetry and the run's allocation totals), /heat (per-partition rows
	// and the hot set) and /spans (the live causal-span waterfall) of the latest run, each
	// rendered from the log at scrape time.
	Log *Log
	// RunsDir is a Recorder's root: /runs lists the recorded manifests as JSON
	// and /runs/<run> serves that run's record file.
	RunsDir string
	// ProfileDir is a Harvester's directory: /profiles serves its index.json
	// and the rotated pprof captures.
	ProfileDir string
}

func (src Sources) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "cyclops diagnostics\n\n/metrics\n/trace\n/comm\n/mem\n/heat\n/spans\n/runs\n/profiles\n/debug/pprof/\n")
	})
	if log := src.Log; log != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			log.WriteMetrics(w) //nolint:errcheck // best-effort HTTP response
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			log.WriteTrace(w) //nolint:errcheck // best-effort HTTP response
		})
		mux.HandleFunc("/comm", log.ServeComm)
		mux.HandleFunc("/mem", log.ServeMem)
		mux.HandleFunc("/heat", log.ServeHeat)
		mux.HandleFunc("/spans", log.ServeSpans)
	}
	if src.ProfileDir != "" {
		mux.Handle("/profiles/", http.StripPrefix("/profiles/", http.FileServer(http.Dir(src.ProfileDir))))
		mux.Handle("/profiles", http.RedirectHandler("/profiles/index.json", http.StatusTemporaryRedirect))
	}
	if runsDir := src.RunsDir; runsDir != "" {
		mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
			ms, err := ReadManifests(runsDir)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			writeJSON(w, ms) //nolint:errcheck // best-effort HTTP response
		})
		mux.HandleFunc("/runs/", func(w http.ResponseWriter, r *http.Request) {
			// Only run records are exposed, not arbitrary siblings.
			run := strings.TrimPrefix(r.URL.Path, "/runs/")
			if !strings.HasPrefix(run, "run-") || strings.Contains(run, "/") {
				http.NotFound(w, r)
				return
			}
			http.ServeFile(w, r, filepath.Join(runsDir, run+recordExt))
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the diagnostics server on addr (e.g. "localhost:6060", or
// ":0" for an ephemeral port) and returns immediately; requests are handled
// on a background goroutine until Close or Shutdown.
func Serve(addr string, src Sources) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:  ln,
		srv: &http.Server{Handler: src.mux(), ReadHeaderTimeout: 10 * time.Second},
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL reports the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close stops the listener immediately, dropping in-flight requests. Prefer
// Shutdown on orderly exit paths so a /metrics scrape racing the process exit
// still completes.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops accepting new connections and waits for in-flight requests
// to finish, up to ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
