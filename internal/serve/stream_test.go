package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"carf/internal/sched"
	"carf/internal/store"
	"carf/internal/telemetry"
)

// readJobFrames decodes data: lines from a job's SSE stream until it
// ends.
func readJobFrames(t *testing.T, ts *httptest.Server, id string) []telemetry.Frame {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	var out []telemetry.Frame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f telemetry.Frame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		out = append(out, f)
		if f.Type == "done" {
			return out
		}
	}
}

// TestJobStreamProgressThenDone runs a real kernel job with the
// scheduler's throttle off and checks its stream: monotonic progress
// frames carrying target/pct payloads, then the terminal done frame.
func TestJobStreamProgressThenDone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	sch := sched.New(2)
	sch.SetProgressInterval(0)
	_, ts := newTestDaemon(t, Options{Scheduler: sch})

	resp := submit(t, ts, "c1", `{"kernel":"crc64","scale":0.1}`)
	acc := decode[map[string]string](t, resp)
	waitStatus(t, ts, acc["id"], StatusDone)

	frames := readJobFrames(t, ts, acc["id"])
	if len(frames) < 3 {
		t.Fatalf("streamed %d frames, want >= 2 progress + done: %+v", len(frames), frames)
	}
	last := frames[len(frames)-1]
	if last.Type != "done" || last.Status != StatusDone || last.Note != "" {
		t.Fatalf("terminal frame = %+v, want done/done without a provenance note", last)
	}
	var prevInsts uint64
	for i, f := range frames[:len(frames)-1] {
		if f.Type != "progress" || f.Progress == nil {
			t.Fatalf("frame %d = %+v, want a progress frame", i, f)
		}
		if f.Progress.Insts < prevInsts {
			t.Fatalf("frame %d not monotonic: %d after %d", i, f.Progress.Insts, prevInsts)
		}
		prevInsts = f.Progress.Insts
		if f.Job != acc["id"] || f.Progress.Target == 0 || f.Progress.Pct < 0 {
			t.Errorf("frame %d missing job/target/pct: %+v", i, f)
		}
	}
	if fin := frames[len(frames)-2].Progress; !fin.Final || fin.Pct != 1 {
		t.Errorf("last progress frame = %+v, want Final at pct 1", fin)
	}

	// A non-final progress frame carries the simulator's interval window
	// and write mix, on the job stream and on the run's own stream.
	rr, err := ts.Client().Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	runs := decode[telemetry.RunsDocument](t, rr)
	if len(runs.Completed) != 1 {
		t.Fatalf("/runs lists %d completed runs, want 1", len(runs.Completed))
	}
	for path, raw := range map[string][][]byte{
		"job stream": sseData(t, ts, "/api/v1/runs/"+acc["id"]+"/stream"),
		"run stream": sseData(t, ts, fmt.Sprintf("/runs/%d/stream", runs.Completed[0].ID)),
	} {
		var f struct {
			Progress struct {
				IntervalCycles uint64    `json:"interval_cycles"`
				WritesByType   [3]uint64 `json:"writes_by_type"`
				Final          bool      `json:"final"`
			} `json:"progress"`
		}
		if len(raw) == 0 {
			t.Fatalf("%s is empty", path)
		}
		if err := json.Unmarshal(raw[0], &f); err != nil {
			t.Fatal(err)
		}
		p := f.Progress
		if p.Final || p.IntervalCycles == 0 || p.WritesByType[0]+p.WritesByType[1]+p.WritesByType[2] == 0 {
			t.Errorf("%s first frame %s: want a non-final frame with interval_cycles > 0 and a write mix", path, raw[0])
		}
	}

	// The job-status document carries the newest snapshot too.
	st, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + acc["id"])
	if err != nil {
		t.Fatal(err)
	}
	j := decode[Job](t, st)
	if j.Progress == nil || j.Progress.Insts == 0 {
		t.Errorf("job status has no progress snapshot: %+v", j.Progress)
	}
}

// TestJobStreamDiskHitNote: a job served entirely from the persistent
// tier streams a single done frame whose note says no simulation ran.
func TestJobStreamDiskHitNote(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	dir := t.TempDir()
	body := `{"kernel":"crc64","scale":0.04}`

	runOnce := func() (string, []telemetry.Frame) {
		st, err := store.Open(store.Options{Dir: dir, Schema: "serve-stream-test/v1", Logger: testLogger()})
		if err != nil {
			t.Fatal(err)
		}
		d := New(Options{Scheduler: sched.New(2), Store: st, Logger: testLogger(), JobTimeout: 2 * time.Minute})
		ts := httptest.NewServer(d.Handler())
		defer ts.Close()
		resp := submit(t, ts, "c1", body)
		acc := decode[map[string]string](t, resp)
		waitStatus(t, ts, acc["id"], StatusDone)
		frames := readJobFrames(t, ts, acc["id"])
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		return acc["id"], frames
	}

	_, first := runOnce()
	if last := first[len(first)-1]; last.Type != "done" || last.Note != "" {
		t.Fatalf("first pass terminal frame = %+v, want unannotated done", last)
	}

	_, second := runOnce()
	if len(second) != 1 {
		t.Fatalf("disk-served job streamed %d frames, want exactly 1: %+v", len(second), second)
	}
	f := second[0]
	if f.Type != "done" || f.Status != StatusDone || !strings.Contains(f.Note, "persistent tier") {
		t.Errorf("disk-hit terminal frame = %+v, want a done frame noting the persistent tier", f)
	}
}

// TestJobStreamUnknownID is a 404.
func TestJobStreamUnknownID(t *testing.T) {
	_, ts := newTestDaemon(t, Options{})
	resp, err := ts.Client().Get(ts.URL + "/api/v1/runs/r-999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}
