// Package telemetry is the simulator's live observability plane: where
// the metrics package watches one simulation from the inside (interval
// samples of pipeline counters), telemetry watches the orchestration
// layer from above — every experiment and every scheduler run, while
// they are in flight.
//
// Two halves compose:
//
//   - A span tracer (Tracer/Span) building an orchestration-level
//     timeline: one slice per experiment, per queued request, and per
//     executing simulation, with run-key correlation ids and parent
//     links, exported in Chrome trace format for ui.perfetto.dev.
//   - An embedded HTTP server (Server) over a Hub that observes the
//     simulation scheduler: /metrics in Prometheus text exposition
//     format, /healthz, /runs as a live JSON table of in-flight and
//     completed runs with hit/miss/joined provenance, and /events
//     streaming run lifecycle events over SSE.
//
// The Hub implements sched.Observer; attach it with
// Scheduler.SetObserver and every DoProgress call appears in all four
// views, correlated by the run key's short id. Everything here is passive:
// rendered experiment output is byte-identical with telemetry on or
// off.
package telemetry

import (
	"io"
	"log/slog"
	"sync"
	"time"

	"carf/internal/metrics"
	"carf/internal/sched"
)

// completedCap bounds the completed-run table served by /runs; older
// rows fall off (completed_total keeps the true count).
const completedCap = 512

// RunRecord is one scheduler run's row in the /runs table. Times are
// milliseconds since the hub started; zero-valued times mean the run
// has not reached that state.
type RunRecord struct {
	ID      uint64 `json:"id"`
	Key     string `json:"key"` // short correlation id (Key.Short)
	Label   string `json:"label"`
	State   string `json:"state"` // queued, running, done
	Outcome string `json:"outcome,omitempty"`

	EnqueuedMs float64 `json:"enqueued_ms"`
	StartedMs  float64 `json:"started_ms,omitempty"`
	FinishedMs float64 `json:"finished_ms,omitempty"`

	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	SimWallMs   float64 `json:"sim_wall_ms,omitempty"`
	Err         string  `json:"error,omitempty"`

	// Progress is the newest frame of an executing progress-reporting
	// run; completed rows keep the last one.
	Progress *sched.Progress `json:"progress,omitempty"`
}

// Frame is the one SSE message type: run and experiment lifecycle
// events on /events, per-run frames on /runs/{id}/stream, and carfserve
// job frames on /api/v1/runs/{id}/stream. Type says which fields are
// set:
//
//   - "hello" opens /events (clients sync their clock to TMs);
//   - "run-start", "run-progress", "run-finish", "experiment-start" and
//     "experiment-finish" are /events lifecycle transitions;
//   - "progress" frames stream an executing run or job, and exactly one
//     "done" frame ends the stream. A run or job served without
//     simulating (cache hit, disk hit, join) streams a single done
//     frame whose Note says so.
type Frame struct {
	Type  string  `json:"type"`
	TMs   float64 `json:"t_ms"`          // milliseconds since the hub started
	ID    uint64  `json:"id,omitempty"`  // scheduler run id
	Job   string  `json:"job,omitempty"` // carfserve job id
	Label string  `json:"label,omitempty"`
	Key   string  `json:"key,omitempty"`

	// run-progress and progress frames: the frame as stamped by the
	// scheduler.
	Progress *sched.Progress `json:"progress,omitempty"`

	// Terminal frames: run-finish, experiment-finish and done.
	Outcome     string  `json:"outcome,omitempty"`
	Status      string  `json:"status,omitempty"` // a job's terminal status
	QueueWaitMs float64 `json:"queue_wait_ms,omitempty"`
	SimWallMs   float64 `json:"sim_wall_ms,omitempty"`
	ElapsedMs   float64 `json:"elapsed_ms,omitempty"`
	Err         string  `json:"error,omitempty"`
	Note        string  `json:"note,omitempty"` // provenance for frame-less runs
}

// runState is the hub's in-flight bookkeeping for one scheduler run.
type runState struct {
	rec  RunRecord
	span *Span // request-side span (queue-wait / hit / joined)
	work *Span // worker-side sim span (misses only)
}

// Hub is the live telemetry nexus: it implements sched.Observer,
// maintains the /runs table, feeds the span tracer, and broadcasts SSE
// events. All methods are safe for concurrent use. Construct with
// NewHub, attach with Scheduler.SetObserver, serve with NewServer.
type Hub struct {
	tracer *Tracer
	t0     time.Time

	mu             sync.Mutex
	inflight       map[uint64]*runState
	completed      []RunRecord // ring, newest appended; bounded by completedCap
	completedTotal uint64

	feed            *Stream // /events: lifecycle frames, no replay window
	events          uint64  // SSE frames published, on /events and run streams
	dropped         uint64  // SSE frames slow followers missed
	slowDisconnects uint64  // followers force-closed after stalling past the limit

	// Per-run frame streams (/runs/{id}/stream): every enqueued run gets
	// one, so hits and disk hits still stream their terminal frame.
	streams     map[uint64]*Stream
	streamOrder []uint64 // finished stream ids, oldest first (eviction)
}

// NewHub returns a hub tracing into a fresh Tracer.
func NewHub() *Hub {
	return &Hub{
		tracer:   NewTracer(),
		t0:       time.Now(),
		inflight: map[uint64]*runState{},
		feed:     newStream(0),
		streams:  map[uint64]*Stream{},
	}
}

// Tracer returns the hub's orchestration tracer (write its trace out
// with Tracer.Write once the study finishes). A nil hub returns a nil
// (inert) tracer.
func (h *Hub) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.tracer
}

func (h *Hub) sinceMs(t time.Time) float64 {
	return float64(t.Sub(h.t0)) / float64(time.Millisecond)
}

// NowMs is the hub clock every Frame's TMs reads: milliseconds since
// the hub started.
func (h *Hub) NowMs() float64 { return h.sinceMs(time.Now()) }

// RunEnqueued implements sched.Observer: a DoProgress call entered the
// scheduler. The request-side span opens here; its final category
// (queue-wait, hit, joined) is decided when the run resolves.
func (h *Hub) RunEnqueued(id uint64, key sched.Key, label string) {
	sp := h.tracer.StartSpan(TrackRequests, "queue-wait", label).
		Attr("key", key.Short()).Attr("run", id)
	h.mu.Lock()
	h.inflight[id] = &runState{
		rec: RunRecord{
			ID:         id,
			Key:        key.Short(),
			Label:      label,
			State:      "queued",
			EnqueuedMs: h.NowMs(),
		},
		span: sp,
	}
	h.streams[id] = NewStream()
	h.mu.Unlock()
	h.publish(Frame{Type: "run-start", TMs: h.NowMs(), ID: id, Label: label, Key: key.Short()})
}

// RunProgressed implements sched.Observer: an executing run reported a
// progress frame (already throttled by the scheduler). The /runs row
// updates in place, the frame lands on the run's own stream, and a
// run-progress event goes out on /events.
func (h *Hub) RunProgressed(id uint64, p sched.Progress) {
	h.mu.Lock()
	st := h.inflight[id]
	if st == nil {
		h.mu.Unlock()
		return
	}
	st.rec.Progress = &p
	label, key := st.rec.Label, st.rec.Key
	stream := h.streams[id]
	h.mu.Unlock()

	h.count(stream.Publish(Frame{
		Type: "progress", TMs: h.NowMs(), ID: id, Label: label, Key: key, Progress: &p,
	}))
	h.publish(Frame{Type: "run-progress", TMs: h.NowMs(), ID: id, Label: label, Key: key, Progress: &p})
}

// RunStarted implements sched.Observer: a miss starts simulating.
// The queue-wait slice ends and the sim slice opens on a worker lane,
// parent-linked to the request span.
func (h *Hub) RunStarted(id uint64) {
	h.mu.Lock()
	st := h.inflight[id]
	if st == nil {
		h.mu.Unlock()
		return
	}
	st.rec.State = "running"
	st.rec.StartedMs = h.NowMs()
	reqSpan := st.span
	h.mu.Unlock()

	reqSpan.End()
	work := h.tracer.StartSpan(TrackWorkers, "sim", st.rec.Label).
		Attr("key", st.rec.Key).Attr("run", id)
	work.SetParent(reqSpan.ID())
	h.mu.Lock()
	st.span = nil
	st.work = work
	h.mu.Unlock()
}

// RunFinished implements sched.Observer: the run resolved (simulated,
// cache hit, or joined an in-flight execution).
func (h *Hub) RunFinished(id uint64, p sched.Provenance, err error) {
	h.mu.Lock()
	st := h.inflight[id]
	if st == nil {
		h.mu.Unlock()
		return
	}
	delete(h.inflight, id)
	st.rec.State = "done"
	st.rec.Outcome = p.Outcome.String()
	st.rec.FinishedMs = h.NowMs()
	st.rec.QueueWaitMs = float64(p.QueueWait) / float64(time.Millisecond)
	st.rec.SimWallMs = float64(p.SimWall) / float64(time.Millisecond)
	if err != nil {
		st.rec.Err = err.Error()
	}
	h.completed = append(h.completed, st.rec)
	if len(h.completed) > completedCap {
		h.completed = h.completed[len(h.completed)-completedCap:]
	}
	h.completedTotal++
	span, work := st.span, st.work
	stream := h.streams[id]
	h.mu.Unlock()

	if work != nil {
		// Miss: the sim slice closes; the queue-wait slice closed at start.
		work.Attr("outcome", p.Outcome.String()).End()
	}
	if span != nil {
		// Hit or joined (or a miss that never reached RunStarted): the
		// request-side slice closes under its resolved category.
		span.SetCategory(p.Outcome.String())
		span.Attr("outcome", p.Outcome.String()).End()
	}
	h.publish(Frame{
		Type: "run-finish", TMs: h.NowMs(), ID: id,
		Label: st.rec.Label, Key: st.rec.Key, Outcome: st.rec.Outcome,
		QueueWaitMs: st.rec.QueueWaitMs, SimWallMs: st.rec.SimWallMs,
		Err: st.rec.Err,
	})
	if stream.Finish(Frame{
		Type: "done", TMs: h.NowMs(), ID: id,
		Label: st.rec.Label, Key: st.rec.Key, Outcome: st.rec.Outcome,
		SimWallMs: st.rec.SimWallMs, Err: st.rec.Err,
		Note: provenanceNote(p.Outcome),
	}) {
		// The finished stream joins the retention queue.
		h.mu.Lock()
		h.events++
		h.streamOrder = append(h.streamOrder, id)
		for len(h.streamOrder) > streamCap {
			delete(h.streams, h.streamOrder[0])
			h.streamOrder = h.streamOrder[1:]
		}
		h.mu.Unlock()
	}
}

// stream returns run id's frame stream, nil when unknown or evicted.
func (h *Hub) stream(id uint64) *Stream {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.streams[id]
}

// provenanceNote explains a terminal frame with no preceding progress
// frames: the run was served without (re-)simulating.
func provenanceNote(o sched.Outcome) string {
	switch o {
	case sched.Hit:
		return "served from the in-memory cache; no simulation ran"
	case sched.DiskHit:
		return "served from the persistent disk tier; no simulation ran"
	case sched.Joined:
		return "joined an identical in-flight run; see that run's stream"
	case sched.PeerHit:
		return "served by a peer process sharing the store (lease wait); no simulation ran here"
	}
	return ""
}

// ExperimentStart opens an experiment span and announces it on /events.
// End the returned span (via ExperimentEnd) when the experiment's
// rendering completes. Both methods are no-ops on a nil hub, so CLIs
// instrument unconditionally and pay nothing with telemetry off.
func (h *Hub) ExperimentStart(name string) *Span {
	if h == nil {
		return nil
	}
	h.publish(Frame{Type: "experiment-start", TMs: h.NowMs(), Label: name})
	return h.tracer.StartSpan(TrackExperiments, "experiment", name)
}

// ExperimentEnd closes an experiment span with its outcome.
func (h *Hub) ExperimentEnd(name string, sp *Span, elapsed time.Duration, err error) {
	if h == nil {
		return
	}
	ev := Frame{
		Type: "experiment-finish", TMs: h.NowMs(), Label: name,
		ElapsedMs: float64(elapsed) / float64(time.Millisecond),
	}
	if err != nil {
		ev.Err = err.Error()
		sp.Attr("error", err.Error())
	}
	sp.End()
	h.publish(ev)
}

// Runs snapshots the /runs tables: in-flight runs in id order, then
// completed runs oldest-first (bounded; total is the unbounded count).
func (h *Hub) Runs() (inflight, completed []RunRecord, total uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	inflight = make([]RunRecord, 0, len(h.inflight))
	for _, st := range h.inflight {
		inflight = append(inflight, st.rec)
	}
	// Insertion sort by id: the in-flight set is small (≤ pool + queued).
	for i := 1; i < len(inflight); i++ {
		for j := i; j > 0 && inflight[j].ID < inflight[j-1].ID; j-- {
			inflight[j], inflight[j-1] = inflight[j-1], inflight[j]
		}
	}
	return inflight, append([]RunRecord(nil), h.completed...), h.completedTotal
}

// publish sends one lifecycle frame to the /events followers.
func (h *Hub) publish(ev Frame) { h.count(h.feed.Publish(ev)) }

// count adds one Stream.Publish result to the hub's SSE counters.
func (h *Hub) count(ok bool, dropped, disconnected int) {
	if ok {
		h.mu.Lock()
		h.events++
		h.dropped += uint64(dropped)
		h.slowDisconnects += uint64(disconnected)
		h.mu.Unlock()
	}
}

// MetaReadings reports the hub's meta-metrics as readings for the
// /metrics exposition.
func (h *Hub) MetaReadings() []metrics.Reading {
	followers := h.feed.followers()
	h.mu.Lock()
	defer h.mu.Unlock()
	return []metrics.Reading{
		{Name: "telemetry.runs_inflight", Kind: metrics.ReadGauge, Value: float64(len(h.inflight))},
		{Name: "telemetry.runs_completed_total", Kind: metrics.ReadCounter, Value: float64(h.completedTotal)},
		{Name: "telemetry.events_published_total", Kind: metrics.ReadCounter, Value: float64(h.events)},
		{Name: "telemetry.events_dropped_total", Kind: metrics.ReadCounter, Value: float64(h.dropped)},
		{Name: "telemetry.sse_slow_disconnects_total", Kind: metrics.ReadCounter, Value: float64(h.slowDisconnects)},
		{Name: "telemetry.sse_subscribers", Kind: metrics.ReadGauge, Value: float64(followers)},
		{Name: "telemetry.streams_retained", Kind: metrics.ReadGauge, Value: float64(len(h.streams))},
	}
}

// NewLogger returns the telemetry plane's structured logger: slog text
// lines to w with millisecond timestamps. CLIs use it for progress and
// lifecycle lines (stderr), keeping rendered study output (stdout)
// byte-identical; run-key correlation ids travel in the "key" field.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				a.Value = slog.StringValue(a.Value.Time().Format("15:04:05.000"))
			}
			return a
		},
	}))
}

// LogProvenance renders a Provenance as slog fields, correlated by the
// run key's short id.
func LogProvenance(p sched.Provenance) []any {
	return []any{
		"key", p.Key.Short(),
		"outcome", p.Outcome.String(),
		"queue_wait", p.QueueWait.Round(time.Microsecond).String(),
		"sim_wall", p.SimWall.Round(time.Microsecond).String(),
	}
}
