package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"carf/internal/metrics"
	"carf/internal/sched"
)

// Server is the embedded telemetry HTTP server CLIs start behind the
// -telemetry flag. Endpoints:
//
//	/metrics  Prometheus text exposition: the attached scheduler's
//	          readings (run/hit/join counters, queue-wait and sim-wall
//	          histograms) plus hub and process meta-series.
//	/healthz  liveness: {"status":"ok",...}.
//	/runs     live JSON table of in-flight and completed runs with
//	          hit/miss/joined provenance.
//	/events   SSE stream of run and experiment lifecycle events.
//	/         endpoint index.
//
// The hub and the scheduler are fixed at construction.
type Server struct {
	hub   *Hub
	sch   *sched.Scheduler // nil: /metrics and /runs omit scheduler data
	start time.Time

	mu      sync.Mutex
	extra   []func() []metrics.Reading
	healthf func() map[string]any

	ln  net.Listener
	srv *http.Server
}

// NewServer returns a server over hub, scraping s for /metrics and the
// /runs summary (s may be nil).
func NewServer(hub *Hub, s *sched.Scheduler) *Server {
	return &Server{hub: hub, sch: s, start: time.Now()}
}

// AddMetrics registers an extra readings source appended to every
// /metrics scrape (the store's counters, the daemon's job gauges).
// Sources must be safe to call from any goroutine.
func (sv *Server) AddMetrics(fn func() []metrics.Reading) {
	sv.mu.Lock()
	sv.extra = append(sv.extra, fn)
	sv.mu.Unlock()
}

// SetHealth installs a detail source merged into the /healthz document.
// Reserved keys ("status", "uptime_seconds") are not overridable; a
// "status" from fn is reported as "detail_status" instead, so liveness
// probes keep their contract while degradation stays visible.
func (sv *Server) SetHealth(fn func() map[string]any) {
	sv.mu.Lock()
	sv.healthf = fn
	sv.mu.Unlock()
}

// Handler returns the telemetry mux (exported for httptest).
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", sv.index)
	mux.HandleFunc("/metrics", sv.metrics)
	mux.HandleFunc("/healthz", sv.healthz)
	mux.HandleFunc("/runs", sv.runs)
	mux.HandleFunc("/runs/{id}/stream", sv.runStream)
	mux.HandleFunc("/events", sv.eventsSSE)
	return mux
}

// Start listens on addr (host:port; ":0" picks a free port) and serves
// in a background goroutine. It returns the bound address.
func (sv *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	sv.ln = ln
	sv.srv = &http.Server{Handler: sv.Handler()}
	go sv.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close stops the listener and any in-flight handlers (SSE streams end
// when their clients disconnect or the process exits).
func (sv *Server) Close() error {
	if sv.srv != nil {
		return sv.srv.Close()
	}
	return nil
}

func (sv *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "carf telemetry\n\n/metrics            Prometheus text exposition\n/healthz            liveness\n/runs               live run table (JSON)\n/runs/{id}/stream   one run's progress frames (SSE)\n/events             run lifecycle + progress stream (SSE)\n")
}

func (sv *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(sv.start).Seconds(),
	}
	sv.mu.Lock()
	healthf := sv.healthf
	sv.mu.Unlock()
	if healthf != nil {
		for k, v := range healthf() {
			if k == "status" {
				k = "detail_status"
			}
			if k == "uptime_seconds" {
				continue
			}
			doc[k] = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

func (sv *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if sv.sch != nil {
		if err := WritePrometheus(w, "carf", sv.sch.Readings()); err != nil {
			return
		}
	}
	meta := append(sv.hub.MetaReadings(),
		metrics.Reading{Name: "telemetry.uptime_seconds", Kind: metrics.ReadGauge, Value: time.Since(sv.start).Seconds()},
		metrics.Reading{Name: "go.goroutines", Kind: metrics.ReadGauge, Value: float64(runtime.NumGoroutine())},
	)
	sv.mu.Lock()
	extra := sv.extra
	sv.mu.Unlock()
	for _, fn := range extra {
		meta = append(meta, fn()...)
	}
	WritePrometheus(w, "carf", meta) //nolint:errcheck // best-effort tail
}

// RunsDocument is the /runs JSON document. Exported so clients
// (cmd/carftop) decode the same shape the server encodes.
type RunsDocument struct {
	NowMs          float64      `json:"now_ms"`
	InFlight       []RunRecord  `json:"in_flight"`
	Completed      []RunRecord  `json:"completed"`
	CompletedTotal uint64       `json:"completed_total"`
	Sched          *sched.Stats `json:"sched,omitempty"`
}

func (sv *Server) runs(w http.ResponseWriter, _ *http.Request) {
	inflight, completed, total := sv.hub.Runs()
	resp := RunsDocument{
		NowMs:          sv.hub.NowMs(),
		InFlight:       inflight,
		Completed:      completed,
		CompletedTotal: total,
	}
	if sv.sch != nil {
		st := sv.sch.Stats()
		resp.Sched = &st
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp) //nolint:errcheck // client went away
}

// eventsSSE follows the hub's /events stream until the client
// disconnects or is disconnected as a slow follower (the stream closes
// its channel, so the client learns it fell behind). Each message is
// one Frame JSON object; a hello frame opens the stream so clients can
// sync clocks.
func (sv *Server) eventsSSE(w http.ResponseWriter, r *http.Request) {
	_, live, cancel := sv.hub.feed.Subscribe()
	defer cancel()
	hello, _ := json.Marshal(Frame{Type: "hello", TMs: sv.hub.NowMs()})
	writeSSE(w, r, [][]byte{hello}, live)
}

// runStream streams one run's frames (see Stream.ServeHTTP). A run that
// was served without simulating (cache hit, disk hit) replays a single
// done frame whose note says so.
func (sv *Server) runStream(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad run id", http.StatusBadRequest)
		return
	}
	st := sv.hub.stream(id)
	if st == nil {
		http.Error(w, "no such run (or its stream aged out)", http.StatusNotFound)
		return
	}
	st.ServeHTTP(w, r)
}
