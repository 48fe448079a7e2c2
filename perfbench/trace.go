package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one
// simulation or one study pass share a group; Parent links a call to the
// call that caused it. Attrs carry counts taken at the same boundary
// (for example the register-file model's call count and time inside one
// RunChunk, which are too many and too short to record one by one).
type span struct {
	ID     uint64
	Parent uint64
	Group  string
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  map[string]float64
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so call sites need no guard.
type tracer struct {
	mu    sync.Mutex
	next  uint64
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so children can name a parent before the
// parent's span ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record is add for a span that ends now.
func (t *tracer) record(id, parent uint64, group, name string, start time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Group: group, Name: name, Start: start, End: time.Now(), Attrs: attrs})
}

// named returns the spans with the given name whose group passes keep.
func (t *tracer) named(name string, keep func(group string) bool) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Group)) {
			out = append(out, s)
		}
	}
	return out
}

// write saves the spans as a Chrome trace-event file (chrome://tracing,
// Perfetto): one track per group.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		tid, ok := tids[s.Group]
		if !ok {
			tid = len(tids) + 1
			tids[s.Group] = tid
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "group": s.Group}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid, Args: args,
			Ts:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
