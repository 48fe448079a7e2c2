// Package serve is the long-running simulation service behind
// cmd/carfserve: an HTTP/JSON API for submitting kernel simulations and
// paper experiments, grown out of internal/telemetry's embedded server
// (which keeps contributing /metrics, /runs, /events and /healthz).
//
// Every edge is hardened:
//
//   - Admission control: pending+running jobs are bounded globally and
//     per client; a saturated server sheds load with 429 + Retry-After
//     instead of absorbing it, and keeps /healthz and /metrics fast.
//   - Deadlines: every job runs under a context with the configured
//     timeout; cancellation propagates through the scheduler into the
//     simulator's cycle loop (cooperative abort), so an abandoned run
//     frees its worker instead of simulating to completion.
//   - Graceful drain: Shutdown stops admitting (503), lets in-flight
//     jobs finish, and only then returns — SIGTERM never kills a run
//     mid-write.
//   - Persistence: with a store attached, completed runs survive
//     process death and come back as disk-tier hits; the store's
//     degraded/quarantine state is surfaced in /healthz.
package serve

import (
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"carf"
	"carf/internal/experiments"
	"carf/internal/metrics"
	"carf/internal/sched"
	"carf/internal/store"
	"carf/internal/telemetry"
)

// kernelResult is the persisted shape of a daemon kernel run: the
// measurement fields of carf.Result without its instrumentation
// pointers (Series/Trace/Profile), whose types gob cannot encode. The
// API never enables instrumentation, so nothing is lost.
type kernelResult struct {
	Kernel       string
	Organization string

	Cycles       uint64
	Instructions uint64
	IPC          float64

	Branches    uint64
	Mispredicts uint64

	IntOperands      uint64
	BypassedOperands uint64
	BypassRate       float64

	RegFileEnergy     float64
	RegFileArea       float64
	RegFileAccessTime float64

	ReadsByType    [3]uint64
	WritesByType   [3]uint64
	AvgLiveLong    float64
	RecoveryStalls uint64
}

func init() { gob.Register(kernelResult{}) }

func toKernelResult(r carf.Result) kernelResult {
	return kernelResult{
		Kernel:            r.Kernel,
		Organization:      string(r.Organization),
		Cycles:            r.Cycles,
		Instructions:      r.Instructions,
		IPC:               r.IPC,
		Branches:          r.Branches,
		Mispredicts:       r.Mispredicts,
		IntOperands:       r.IntOperands,
		BypassedOperands:  r.BypassedOperands,
		BypassRate:        r.BypassRate,
		RegFileEnergy:     r.RegFileEnergy,
		RegFileArea:       r.RegFileArea,
		RegFileAccessTime: r.RegFileAccessTime,
		ReadsByType:       r.ReadsByType,
		WritesByType:      r.WritesByType,
		AvgLiveLong:       r.AvgLiveLong,
		RecoveryStalls:    r.RecoveryStalls,
	}
}

// Options configures a Daemon.
type Options struct {
	// Scheduler executes and memoizes the simulations (default
	// sched.Global()).
	Scheduler *sched.Scheduler

	// Store, when non-nil, is attached to the scheduler as its
	// persistent tier and reported in health and metrics.
	Store *store.Store

	// MaxJobs bounds jobs admitted but not yet finished, across all
	// clients (default 16). At the bound, submissions get 429.
	MaxJobs int

	// MaxJobsPerClient bounds unfinished jobs per client (default 4).
	MaxJobsPerClient int

	// RunningJobs bounds jobs executing at once (default 2); admitted
	// jobs beyond it wait queued. Simulation parallelism inside a job is
	// separately bounded by the scheduler's worker pool.
	RunningJobs int

	// JobTimeout bounds one job's wall time (default 10m). The deadline
	// cancels queued work and cooperatively aborts running simulations.
	JobTimeout time.Duration

	// Logger receives lifecycle and degradation reports (default
	// slog.Default()).
	Logger *slog.Logger

	// runJob substitutes the job execution body (tests use it to make
	// jobs hang or finish instantly). nil = the real simulator path.
	runJob func(ctx context.Context, j *Job) (string, sched.Stats, error)
}

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// SubmitRequest is the POST /api/v1/runs body. Exactly one of
// Experiment or Kernel must be set.
type SubmitRequest struct {
	// Experiment names a paper exhibit (see carf.Experiments).
	Experiment string `json:"experiment,omitempty"`

	// Kernel names a benchmark kernel for a single simulation.
	Kernel       string  `json:"kernel,omitempty"`
	Organization string  `json:"organization,omitempty"` // default content-aware
	DPlusN       int     `json:"dplusn,omitempty"`
	ShortRegs    int     `json:"short_regs,omitempty"`
	LongRegs     int     `json:"long_regs,omitempty"`
	Scale        float64 `json:"scale,omitempty"` // default 1.0 kernel / 0.25 experiment
}

// Job is one submitted run and its lifecycle.
type Job struct {
	ID        string        `json:"id"`
	Client    string        `json:"client"`
	Kind      string        `json:"kind"` // "experiment" | "kernel"
	Spec      SubmitRequest `json:"spec"`
	Status    string        `json:"status"`
	Error     string        `json:"error,omitempty"`
	Submitted time.Time     `json:"submitted"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`

	// Sched is the job's own scheduler activity — DiskHits > 0 with
	// Misses == 0 is the "served from the persistent tier" provenance.
	Sched *sched.Stats `json:"sched,omitempty"`

	// Progress is the most recent live progress snapshot while the job's
	// simulations execute (absent before the first frame, and for jobs
	// served entirely from caches — they do no simulation work). For
	// experiment jobs, which run many simulations, possibly in parallel,
	// its Label names the simulation that produced it, and Pct is that
	// simulation's completion, not the whole experiment's.
	Progress *sched.Progress `json:"progress,omitempty"`

	result string             // rendered output, available when done
	cancel context.CancelFunc // cancels this job's context
	stream *telemetry.Stream  // per-job progress frame stream
}

// Daemon is the simulation service. Create with New, serve via Handler
// (or Start), stop with Shutdown.
type Daemon struct {
	opt   Options
	sch   *sched.Scheduler
	st    *store.Store
	hub   *telemetry.Hub
	tsv   *telemetry.Server
	log   *slog.Logger
	base  context.Context // parent of every job context; canceled on forced shutdown
	stop  context.CancelFunc
	slots chan struct{} // RunningJobs execution slots

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listings
	nextID   uint64
	active   int            // jobs not yet finished (admission bound)
	byClient map[string]int // unfinished jobs per client
	draining bool
	wg       sync.WaitGroup

	ln  net.Listener
	srv *http.Server
}

// New builds a Daemon (not yet listening). The store, if any, is wired
// under the scheduler as its persistent tier.
func New(o Options) *Daemon {
	if o.Scheduler == nil {
		o.Scheduler = sched.Global()
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16
	}
	if o.MaxJobsPerClient <= 0 {
		o.MaxJobsPerClient = 4
	}
	if o.RunningJobs <= 0 {
		o.RunningJobs = 2
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	base, stop := context.WithCancel(context.Background())
	d := &Daemon{
		opt:      o,
		sch:      o.Scheduler,
		st:       o.Store,
		log:      o.Logger,
		base:     base,
		stop:     stop,
		slots:    make(chan struct{}, o.RunningJobs),
		jobs:     make(map[string]*Job),
		byClient: make(map[string]int),
	}
	d.hub = telemetry.NewHub()
	d.sch.SetObserver(d.hub)
	if d.st != nil {
		d.sch.SetTier(d.st)
	}
	d.tsv = telemetry.NewServer(d.hub, d.sch)
	d.tsv.SetHealth(d.healthDetail)
	if d.st != nil {
		d.tsv.AddMetrics(d.st.Readings)
	}
	d.tsv.AddMetrics(d.metricsReadings)
	return d
}

// healthDetail is merged into /healthz: admission state plus the
// store's mode — a degraded disk tier is visible here, loudly.
func (d *Daemon) healthDetail() map[string]any {
	d.mu.Lock()
	doc := map[string]any{
		"draining":    d.draining,
		"jobs_active": d.active,
		"jobs_total":  len(d.jobs),
	}
	d.mu.Unlock()
	if d.st != nil {
		st := d.st.Stats()
		doc["store"] = st
		if st.Degraded {
			doc["status"] = "degraded" // surfaces as detail_status
		}
	} else {
		doc["store"] = map[string]any{"mode": "none"}
	}
	return doc
}

func (d *Daemon) metricsReadings() []metrics.Reading {
	d.mu.Lock()
	active, total := d.active, len(d.jobs)
	draining := 0.0
	if d.draining {
		draining = 1
	}
	d.mu.Unlock()
	return []metrics.Reading{
		{Name: "serve.jobs_active", Kind: metrics.ReadGauge, Value: float64(active)},
		{Name: "serve.jobs_total", Kind: metrics.ReadGauge, Value: float64(total)},
		{Name: "serve.draining", Kind: metrics.ReadGauge, Value: draining},
	}
}

// Handler returns the daemon's full mux: the /api/v1 job API plus the
// telemetry plane (/metrics, /runs, /events, /healthz, /).
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/runs", d.submit)
	mux.HandleFunc("GET /api/v1/runs", d.list)
	mux.HandleFunc("GET /api/v1/runs/{id}", d.status)
	mux.HandleFunc("GET /api/v1/runs/{id}/result", d.result)
	mux.HandleFunc("GET /api/v1/runs/{id}/stream", d.stream)
	mux.HandleFunc("DELETE /api/v1/runs/{id}", d.cancelJob)
	mux.Handle("/", d.tsv.Handler())
	return mux
}

// Start listens on addr (":0" picks a port) and serves in the
// background, returning the bound address.
func (d *Daemon) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	d.ln = ln
	d.srv = &http.Server{Handler: d.Handler()}
	go d.srv.Serve(ln) //nolint:errcheck // Serve always returns on Shutdown/Close
	return ln.Addr().String(), nil
}

// Shutdown drains the daemon: stop admitting (new submissions get 503),
// let in-flight jobs finish, flush the store, stop the HTTP server.
// If ctx expires first, in-flight jobs are canceled (cooperative abort)
// and Shutdown waits for them to acknowledge before returning ctx's
// error. Either way the daemon is fully stopped on return.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	d.log.Info("serve: draining — no longer admitting; waiting for in-flight jobs")

	done := make(chan struct{})
	go func() { d.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain deadline passed, canceling in-flight jobs: %w", ctx.Err())
		d.log.Error("serve: drain deadline passed — canceling in-flight jobs")
		d.stop() // cancels every job context
		<-done   // jobs acknowledge cancellation and finish bookkeeping
	}
	d.stop()
	if d.st != nil {
		if cerr := d.st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if d.srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		d.srv.Shutdown(sctx) //nolint:errcheck // listener is closed either way
	}
	d.tsv.Close() //nolint:errcheck // idempotent with srv shutdown
	d.log.Info("serve: drained and stopped")
	return err
}

// clientID attributes a request for per-client admission bounds.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Carf-Client"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// config is the simulator configuration the request runs with: an
// experiment fixes its own organizations and takes only the scale.
func (r SubmitRequest) config() carf.Config {
	if r.Kernel == "" {
		return carf.Config{Scale: r.Scale}
	}
	return carf.Config{
		Organization: carf.Organization(r.Organization),
		DPlusN:       r.DPlusN,
		ShortRegs:    r.ShortRegs,
		LongRegs:     r.LongRegs,
		Scale:        r.Scale,
	}
}

// validate rejects a submission the simulator would reject, before it
// costs a queue slot.
func (r SubmitRequest) validate() (kind string, err error) {
	switch {
	case r.Experiment != "" && r.Kernel != "":
		return "", errors.New("set either experiment or kernel, not both")
	case r.Experiment != "":
		if carf.DescribeExperiment(r.Experiment) == "" {
			return "", fmt.Errorf("unknown experiment %q (known: %v)", r.Experiment, carf.Experiments())
		}
		if err := r.config().Validate(); err != nil {
			return "", err
		}
		return "experiment", nil
	case r.Kernel != "":
		if err := r.config().Validate(); err != nil {
			return "", err
		}
		known := false
		for _, k := range carf.Kernels() {
			if k == r.Kernel {
				known = true
				break
			}
		}
		if !known {
			return "", fmt.Errorf("unknown kernel %q", r.Kernel)
		}
		return "kernel", nil
	default:
		return "", errors.New("set experiment or kernel")
	}
}

func (d *Daemon) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	kind, err := req.validate()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	client := clientID(r)

	d.mu.Lock()
	if d.draining {
		d.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "draining: not admitting new runs")
		return
	}
	if d.active >= d.opt.MaxJobs {
		active := d.active
		d.mu.Unlock()
		w.Header().Set("Retry-After", retryAfter(active))
		writeErr(w, http.StatusTooManyRequests,
			"saturated: %d jobs unfinished (global bound %d)", active, d.opt.MaxJobs)
		return
	}
	if d.byClient[client] >= d.opt.MaxJobsPerClient {
		n := d.byClient[client]
		d.mu.Unlock()
		w.Header().Set("Retry-After", retryAfter(n))
		writeErr(w, http.StatusTooManyRequests,
			"client %q has %d jobs unfinished (per-client bound %d)", client, n, d.opt.MaxJobsPerClient)
		return
	}
	d.nextID++
	j := &Job{
		ID:        fmt.Sprintf("r-%06d", d.nextID),
		Client:    client,
		Kind:      kind,
		Spec:      req,
		Status:    StatusQueued,
		Submitted: time.Now(),
		stream:    telemetry.NewStream(),
	}
	ctx, cancel := context.WithTimeout(d.base, d.opt.JobTimeout)
	j.cancel = cancel
	d.jobs[j.ID] = j
	d.order = append(d.order, j.ID)
	d.active++
	d.byClient[client]++
	d.wg.Add(1)
	d.mu.Unlock()

	d.log.Info("serve: job admitted", "id", j.ID, "client", client, "kind", kind,
		"experiment", req.Experiment, "kernel", req.Kernel)
	go d.execute(ctx, j)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.ID, "status": StatusQueued})
}

// retryAfter estimates seconds until a slot frees: one short job per
// queued unit, floor 1 — honest enough for a backoff hint.
func retryAfter(queued int) string {
	return strconv.Itoa(max(1, queued))
}

// execute runs one job to completion under its context.
func (d *Daemon) execute(ctx context.Context, j *Job) {
	defer d.wg.Done()
	defer j.cancel()

	// Execution slot (RunningJobs bound); cancellation skips the wait.
	select {
	case d.slots <- struct{}{}:
		defer func() { <-d.slots }()
	case <-ctx.Done():
		d.finish(j, "", sched.Stats{}, ctx.Err())
		return
	}

	d.mu.Lock()
	if j.Status == StatusCanceled { // canceled while queued
		d.mu.Unlock()
		return
	}
	now := time.Now()
	j.Status = StatusRunning
	j.Started = &now
	d.mu.Unlock()

	run := d.opt.runJob
	if run == nil {
		run = d.runJob
	}
	text, st, err := run(ctx, j)
	d.finish(j, text, st, err)
}

// finish records a job's terminal state exactly once.
func (d *Daemon) finish(j *Job, text string, st sched.Stats, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if j.Finished != nil {
		return
	}
	now := time.Now()
	j.Finished = &now
	j.Sched = &st
	switch {
	case err == nil:
		j.Status = StatusDone
		j.result = text
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.Status = StatusCanceled
		j.Error = err.Error()
	default:
		j.Status = StatusFailed
		j.Error = err.Error()
	}
	d.active--
	d.byClient[j.Client]--
	if d.byClient[j.Client] <= 0 {
		delete(d.byClient, j.Client)
	}
	d.log.Info("serve: job finished", "id", j.ID, "status", j.Status,
		"disk_hits", j.Sched.DiskHits, "simulated", j.Sched.Misses, "err", j.Error)

	// Terminate the job's progress stream with a done frame. Jobs served
	// entirely without simulating never produced progress frames; their
	// single done frame says why, so a watcher sees provenance, not
	// silence.
	frame := telemetry.Frame{Type: "done", TMs: d.hub.NowMs(), Job: j.ID, Status: j.Status, Err: j.Error}
	if st.Misses == 0 && st.Runs > 0 {
		switch {
		case st.DiskHits > 0:
			frame.Note = "served from the persistent tier (disk hit) — no simulation ran, no progress frames"
		case st.Hits > 0:
			frame.Note = "served from the in-memory cache — no simulation ran, no progress frames"
		case st.PeerHits > 0:
			frame.Note = "served by a peer process sharing the store — it simulated, this daemon waited on its lease"
		case st.Joins > 0:
			frame.Note = "joined an identical in-flight run — progress was reported on the leader's stream"
		}
	}
	j.stream.Finish(frame)
}

// jobProgress records a job's latest progress snapshot and publishes a
// stream frame. Called from simulating goroutines (already throttled and
// stamped by the scheduler's reporter).
func (d *Daemon) jobProgress(j *Job, p sched.Progress) {
	d.mu.Lock()
	if j.Finished == nil {
		j.Progress = &p
	}
	d.mu.Unlock()
	j.stream.Publish(telemetry.Frame{Type: "progress", TMs: d.hub.NowMs(), Job: j.ID, Progress: &p})
}

// runJob is the real execution body: experiments through the
// experiments engine, kernels through the scheduler (both memoized and
// disk-tier-backed).
func (d *Daemon) runJob(ctx context.Context, j *Job) (string, sched.Stats, error) {
	tally := new(sched.Tally)
	switch j.Kind {
	case "experiment":
		r, err := experiments.Run(j.Spec.Experiment, experiments.Options{
			Ctx:        ctx,
			Scale:      j.Spec.Scale,
			Sched:      d.sch,
			Tally:      tally,
			OnProgress: func(p sched.Progress) { d.jobProgress(j, p) },
		})
		if err != nil {
			return "", tally.Stats(), err
		}
		return r.Render(), tally.Stats(), nil
	case "kernel":
		cfg := j.Spec.config()
		// The run goes through the scheduler so it is pooled, deduped
		// against identical submissions, memoized, and persisted. No
		// instrumentation is enabled, so the cached carf.Result is pure
		// data. carf stamps the kernel's own target on every frame; the
		// scheduler's report restamps the label, rate and ETA.
		key := sched.KeyOf("serve-kernel", j.Spec.Kernel, cfg)
		v, prov, err := d.sch.DoProgress(ctx, key, "serve/"+j.Spec.Kernel, true,
			func(p sched.Progress) { d.jobProgress(j, p) },
			func(report sched.ProgressFunc) (any, error) {
				r, err := carf.RunCtxProgress(ctx, j.Spec.Kernel, cfg, report)
				if err != nil {
					return nil, err
				}
				return toKernelResult(r), nil
			})
		tally.Record(prov, err)
		if err != nil {
			return "", tally.Stats(), err
		}
		res := v.(kernelResult)
		b, merr := json.MarshalIndent(res, "", "  ")
		if merr != nil {
			return "", tally.Stats(), merr
		}
		return string(b) + "\n", tally.Stats(), nil
	default:
		return "", sched.Stats{}, fmt.Errorf("serve: unknown job kind %q", j.Kind)
	}
}

// snapshot copies a job for JSON responses (the live object keeps
// changing under d.mu). The copy shares Progress: jobProgress replaces
// that pointer and never writes through it.
func (d *Daemon) snapshot(id string) (Job, string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return Job{}, "", false
	}
	return *j, j.result, true
}

func (d *Daemon) list(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	out := make([]Job, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, *d.jobs[id])
	}
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

func (d *Daemon) status(w http.ResponseWriter, r *http.Request) {
	j, _, ok := d.snapshot(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// stream serves GET /api/v1/runs/{id}/stream: the job's
// telemetry.Stream — recent progress frames replayed, then followed
// live until the terminal done frame.
func (d *Daemon) stream(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	j, ok := d.jobs[r.PathValue("id")]
	d.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	j.stream.ServeHTTP(w, r)
}

func (d *Daemon) result(w http.ResponseWriter, r *http.Request) {
	j, text, ok := d.snapshot(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	switch j.Status {
	case StatusDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	case StatusFailed, StatusCanceled:
		writeJSON(w, http.StatusConflict, j)
	default:
		// Not finished: tell the client to poll again shortly.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusAccepted, j)
	}
}

func (d *Daemon) cancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		writeErr(w, http.StatusNotFound, "no such run %q", id)
		return
	}
	cancel := j.cancel
	queued := j.Status == StatusQueued
	d.mu.Unlock()
	cancel()
	if queued {
		// A queued job may be parked before its context wait; mark it
		// terminally now so it never starts.
		d.finish(j, "", sched.Stats{}, context.Canceled)
	}
	jb, _, _ := d.snapshot(id)
	writeJSON(w, http.StatusOK, jb)
}
