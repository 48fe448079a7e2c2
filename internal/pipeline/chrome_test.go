package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"carf/internal/metrics"
	"carf/internal/regfile"
	"carf/internal/workload"
)

// TestChromeTraceSchema converts a real pipeline trace to Chrome trace
// format and validates the schema end to end: the JSON parses, and
// every event carries ph, ts, dur, pid, tid, and name.
func TestChromeTraceSchema(t *testing.T) {
	k, err := workload.ByName("crc64", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(DefaultConfig(), k.Prog, regfile.Baseline())
	buf := &TraceBuffer{Cap: 200}
	if _, err := cpu.RunContext(context.Background(), Observe{Trace: buf}); err != nil {
		t.Fatal(err)
	}

	events := ChromeTraceEvents(buf.Events)
	if want := 5 * len(buf.Events); len(events) != want {
		t.Fatalf("chrome events = %d, want %d (5 stages x %d instructions)",
			len(events), want, len(buf.Events))
	}

	var out bytes.Buffer
	if err := metrics.WriteChromeTrace(&out, events); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != len(events) {
		t.Fatalf("round trip lost events: %d of %d", len(parsed.TraceEvents), len(events))
	}
	for i, ev := range parsed.TraceEvents {
		for _, field := range []string{"ph", "ts", "dur", "pid", "tid", "name"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
	}

	// Duration events only, non-negative durations, and no overlapping
	// lifetimes within a lane (tid): Perfetto renders lanes as tracks.
	laneEnd := map[int]float64{}
	for i, ev := range events {
		if ev.Ph != "X" {
			t.Fatalf("event %d phase %q, want X", i, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Fatalf("event %d negative duration %v", i, ev.Dur)
		}
		if ev.Name == "fetch" { // first slice of an instruction's lifetime
			if ev.Ts < laneEnd[ev.Tid] {
				t.Fatalf("lane %d overlap: lifetime starting %v before previous end %v",
					ev.Tid, ev.Ts, laneEnd[ev.Tid])
			}
		}
		if end := ev.Ts + ev.Dur; end > laneEnd[ev.Tid] {
			laneEnd[ev.Tid] = end
		}
	}
}
