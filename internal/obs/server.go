package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// Health is the /healthz payload: a status plus whatever node-state
// fields the owner supplies (peer count, store occupancy, exporter
// drops). Fields must be JSON-marshalable.
type Health struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Fields        map[string]any `json:"-"`
}

// ServerConfig assembles a debug server.
type ServerConfig struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:0" (ephemeral) or
	// ":9090".
	Addr string
	// Registry backs /metrics. Nil creates a private empty registry, so
	// the process surfaces (/healthz, pprof) work standalone.
	Registry *Registry
	// Health, when set, contributes node-state fields to /healthz.
	Health func() map[string]any
	// Tracer, when set, backs /debug/trace: the node's span ring dumps
	// on demand as Chrome trace_event JSON (Perfetto-loadable). Nil
	// leaves the endpoint returning 404.
	Tracer *Tracer
	// Log receives request-level debug logging; nil disables it.
	Log *slog.Logger
}

// Server is a per-node HTTP debug surface: GET /metrics returns the
// registry in Prometheus text exposition, GET /healthz returns a JSON
// liveness document, GET /debug/trace dumps the span flight recorder as
// Chrome trace_event JSON, and /debug/pprof/* serves the standard Go
// profiles (CPU, heap, goroutine, block, mutex, trace) so a production
// node can be profiled exactly like a benchmark.
type Server struct {
	reg      *Registry
	health   func() map[string]any
	tracer   *Tracer
	log      *slog.Logger
	started  time.Time
	ln       net.Listener
	srv      *http.Server
	scrapes  *Counter
	scrapeNs *Histogram
	errors   *Counter
}

// NewServer binds addr and starts serving. Close releases the listener.
func NewServer(cfg ServerConfig) (*Server, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	s := &Server{
		reg:     reg,
		health:  cfg.Health,
		tracer:  cfg.Tracer,
		log:     cfg.Log,
		started: time.Now(),
	}
	// The server instruments itself through the same registry it serves:
	// scrape counts and latencies ride along in every exposition, and the
	// histogram hot path gets exercised on every real deployment.
	s.scrapes = reg.Counter("sos_debug_scrapes_total", "Completed /metrics scrapes.")
	s.scrapeNs = reg.Histogram("sos_debug_scrape_seconds", "Time to render one /metrics exposition.", DefBuckets)
	s.errors = reg.Counter("sos_debug_request_errors_total", "Debug-server requests that failed.")
	reg.GaugeFunc("sos_uptime_seconds", "Seconds since the debug server started.", nil, func() float64 {
		return time.Since(s.started).Seconds()
	})
	// Process runtime, sampled at scrape. The debug server is the one
	// object per process, so these are registered here and not per node.
	reg.GaugeFunc("sos_go_goroutines", "Live goroutines in the process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("sos_go_heap_alloc_bytes", "Heap bytes in use by the process.", nil,
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/debug/trace", s.handleTrace)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: binding debug server %q: %w", cfg.Addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	if s.log != nil {
		// The lab's process fleet reads the bound address from this line.
		s.log.Info("debug server listening", "addr", ln.Addr().String())
	}
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Registry returns the registry behind /metrics.
func (s *Server) Registry() *Registry { return s.reg }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteProm(w); err != nil {
		s.errors.Inc()
		if s.log != nil {
			s.log.Debug("metrics scrape failed", "err", err)
		}
		return
	}
	s.scrapes.Inc()
	s.scrapeNs.Observe(time.Since(start).Seconds())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
	}
	if s.health != nil {
		for k, v := range s.health() {
			doc[k] = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		s.errors.Inc()
	}
}

// handleTrace dumps the node's span ring as Chrome trace_event JSON —
// the flight-recorder read-out. Load the response in Perfetto (or
// chrome://tracing) to see the contact-session span trees.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		s.errors.Inc()
		http.Error(w, "tracing disabled (no tracer configured)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.WriteTrace(w); err != nil {
		s.errors.Inc()
		if s.log != nil {
			s.log.Debug("trace dump failed", "err", err)
		}
	}
}

// ScrapeProm fetches and parses one node's /metrics exposition — the
// helper soslab and the lab smoke tests use against live daemons.
func ScrapeProm(client *http.Client, baseURL string) (map[string]float64, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("obs: scraping %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("obs: scraping %s: status %s", baseURL, resp.Status)
	}
	return ParseProm(resp.Body)
}
