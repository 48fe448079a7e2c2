package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"

	"carf/internal/metrics"
)

// Track is a process row group in the orchestration trace. Perfetto
// renders one named process per track; lanes within a track are its
// threads, allocated to the shallowest free row so concurrent spans
// stack compactly and rows are reused as soon as they free.
type Track int

const (
	// TrackExperiments holds one span per experiment (carfstudy -jobs).
	TrackExperiments Track = 1
	// TrackRequests holds the request-side view of every scheduler
	// DoProgress call: queue-wait slices while a miss waits for a worker
	// slot, and hit/joined slices for requests served without simulating.
	TrackRequests Track = 2
	// TrackWorkers holds the sim-wall slices: one row per concurrently
	// executing simulation, bounded by the scheduler pool.
	TrackWorkers Track = 3
)

func (t Track) name() string {
	switch t {
	case TrackExperiments:
		return "experiments"
	case TrackRequests:
		return "scheduler requests"
	case TrackWorkers:
		return "scheduler workers"
	}
	return fmt.Sprintf("track %d", int(t))
}

// SpanID identifies a span within one Tracer (0 = no span / no parent).
type SpanID uint64

// Span is one in-flight slice of the orchestration timeline. Start it
// with Tracer.StartSpan, optionally attach attributes and a parent
// link, then End it exactly once. A nil *Span is inert: every method
// is a no-op, so instrumentation sites need no tracer-enabled check.
type Span struct {
	tr     *Tracer
	id     SpanID
	parent SpanID
	track  Track
	lane   int
	cat    string
	name   string
	start  time.Time
	args   map[string]any
}

// laneAlloc hands out the lowest free lane number within a track.
type laneAlloc struct {
	free []int
	next int
}

func (l *laneAlloc) get() int {
	if n := len(l.free); n > 0 {
		// Take the smallest free lane so rows stay dense.
		min, minI := l.free[0], 0
		for i, v := range l.free[1:] {
			if v < min {
				min, minI = v, i+1
			}
		}
		l.free[minI] = l.free[n-1]
		l.free = l.free[:n-1]
		return min
	}
	l.next++
	return l.next - 1
}

func (l *laneAlloc) put(i int) { l.free = append(l.free, i) }

// Tracer collects orchestration-level spans — experiment lifetimes,
// scheduler queue waits, simulation executions — and exports them as a
// Chrome-trace (Perfetto-loadable) JSON timeline. All methods are safe
// for concurrent use. A nil *Tracer is inert (StartSpan returns a nil
// Span), so callers thread one through unconditionally and pay nothing
// when telemetry is off.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	nextID SpanID
	lanes  map[Track]*laneAlloc
	events []metrics.ChromeEvent
}

// NewTracer returns an empty tracer; span timestamps are relative to
// this call.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now(), lanes: map[Track]*laneAlloc{}}
}

// StartSpan opens a span on track with a Chrome category (the slice
// type: "experiment", "queue-wait", "sim", "hit", "joined") and a
// display name, allocating the track's shallowest free lane.
func (t *Tracer) StartSpan(track Track, cat, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	la := t.lanes[track]
	if la == nil {
		la = &laneAlloc{}
		t.lanes[track] = la
	}
	return &Span{
		tr:    t,
		id:    t.nextID,
		track: track,
		lane:  la.get(),
		cat:   cat,
		name:  name,
		start: time.Now(),
	}
}

// ID returns the span's id for parent links (0 for a nil span).
func (sp *Span) ID() SpanID {
	if sp == nil {
		return 0
	}
	return sp.id
}

// SetParent links this span to a parent span id; the link is exported
// as a "parent" argument on the slice.
func (sp *Span) SetParent(parent SpanID) {
	if sp != nil {
		sp.parent = parent
	}
}

// SetCategory replaces the span's slice type. The scheduler's
// request-side spans use this: a request's final type (queue-wait vs.
// hit vs. joined) is only known when it resolves.
func (sp *Span) SetCategory(cat string) {
	if sp != nil {
		sp.cat = cat
	}
}

// Attr attaches one key/value argument, shown in Perfetto's slice
// details. It returns the span for chaining.
func (sp *Span) Attr(key string, value any) *Span {
	if sp == nil {
		return nil
	}
	if sp.args == nil {
		sp.args = make(map[string]any, 4)
	}
	sp.args[key] = value
	return sp
}

// End closes the span, emitting one complete ("X") slice and freeing
// its lane. End is idempotent via the nil receiver convention only;
// call it exactly once per started span.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	end := time.Now()
	t := sp.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	args := sp.args
	if sp.parent != 0 {
		if args == nil {
			args = make(map[string]any, 1)
		}
		args["parent"] = uint64(sp.parent)
	}
	if args == nil {
		args = map[string]any{}
	}
	args["span"] = uint64(sp.id)
	t.events = append(t.events, metrics.ChromeEvent{
		Name: sp.name,
		Cat:  sp.cat,
		Ph:   "X",
		Ts:   float64(sp.start.Sub(t.t0)) / float64(time.Microsecond),
		Dur:  float64(end.Sub(sp.start)) / float64(time.Microsecond),
		Pid:  int(sp.track),
		Tid:  sp.lane,
		Args: args,
	})
	t.lanes[sp.track].put(sp.lane)
}

// Len returns the number of completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns the completed slices plus the track-naming metadata
// events, ready for metrics.WriteChromeTrace.
func (t *Tracer) Events() []metrics.ChromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]metrics.ChromeEvent, 0, len(t.events)+len(t.lanes))
	for _, track := range []Track{TrackExperiments, TrackRequests, TrackWorkers} {
		if _, used := t.lanes[track]; !used {
			continue
		}
		out = append(out, metrics.ChromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  int(track),
			Args: map[string]any{"name": track.name()},
		})
	}
	return append(out, t.events...)
}

// Write serializes the trace as Chrome trace JSON — load the file in
// https://ui.perfetto.dev to see the per-run timeline across the
// worker pool, with queue-wait, sim, hit, and joined slices as
// distinct categories.
func (t *Tracer) Write(w io.Writer) error {
	return metrics.WriteChromeTrace(w, t.Events())
}
