package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"carf/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frames.golden.jsonl")

const framesGolden = "testdata/frames.golden.jsonl"

// Wall-clock values differ on every run; the golden holds them as 0
// (numbers) or "T" (timestamps). Everything else is compared byte for
// byte, key order included.
var (
	wallNumber = regexp.MustCompile(`"([a-z_]+_ms|[a-z_]+_seconds|[a-z_]+_ns|insts_per_sec)":[-+0-9.eE]+`)
	wallTime   = regexp.MustCompile(`"(submitted|started|finished)":"[^"]*"`)
)

func zeroWallClock(b []byte) []byte {
	b = wallNumber.ReplaceAll(b, []byte(`"$1":0`))
	return wallTime.ReplaceAll(b, []byte(`"$1":"T"`))
}

// sseData returns the data payloads of an SSE stream until it ends.
func sseData(t *testing.T, ts *httptest.Server, path string) [][]byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	var out [][]byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			out = append(out, []byte(line))
		}
	}
	return out
}

// getCompact returns a JSON document with its whitespace removed.
func getCompact(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return buf.Bytes()
}

// TestFramesGolden pins the daemon's wire: every frame of /events, of
// each run's /runs/{id}/stream and of each job's
// /api/v1/runs/{id}/stream, plus the /runs table and the job documents,
// for one simulated kernel job and the same job again served from the
// memo cache. Run with -update-golden to rewrite the golden.
func TestFramesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation")
	}
	sch := sched.New(2)
	sch.SetProgressInterval(0)
	_, ts := newTestDaemon(t, Options{Scheduler: sch})

	// Subscribe to /events before any run exists: the hello frame
	// arrives once the subscription is live.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan []byte, 256)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				events <- []byte(line)
			}
		}
	}()
	var golden bytes.Buffer
	add := func(src string, payload []byte) {
		fmt.Fprintf(&golden, `{"src":%q,"doc":%s}`+"\n", src, zeroWallClock(payload))
	}
	nextEvent := func() []byte {
		t.Helper()
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("/events closed early")
			}
			return ev
		case <-time.After(30 * time.Second):
			t.Fatal("timed out waiting for an /events frame")
			return nil
		}
	}
	add("events", nextEvent())

	var jobs []string
	for i := 0; i < 2; i++ {
		acc := decode[map[string]string](t, submit(t, ts, "c1", `{"kernel":"crc64","scale":0.04}`))
		waitStatus(t, ts, acc["id"], StatusDone)
		jobs = append(jobs, acc["id"])
	}
	for finished := 0; finished < len(jobs); {
		ev := nextEvent()
		add("events", ev)
		if bytes.Contains(ev, []byte(`"type":"run-finish"`)) {
			finished++
		}
	}

	runs := getCompact(t, ts, "/runs")
	add("runs", runs)
	var doc struct {
		Completed []struct {
			ID uint64 `json:"id"`
		} `json:"completed"`
	}
	if err := json.Unmarshal(runs, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Completed) != len(jobs) {
		t.Fatalf("/runs lists %d completed runs, want %d", len(doc.Completed), len(jobs))
	}
	for _, r := range doc.Completed {
		for _, f := range sseData(t, ts, fmt.Sprintf("/runs/%d/stream", r.ID)) {
			add(fmt.Sprintf("run/%d", r.ID), f)
		}
	}
	var final *sched.Progress
	for _, id := range jobs {
		for _, f := range sseData(t, ts, "/api/v1/runs/"+id+"/stream") {
			add("job/"+id, f)
			var doc struct {
				Progress *sched.Progress `json:"progress"`
			}
			if err := json.Unmarshal(f, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.Progress != nil && doc.Progress.Final {
				final = doc.Progress
			}
		}
		add("status/"+id, getCompact(t, ts, "/api/v1/runs/"+id))
	}
	// The simulated job's closing frame carries the paper's write mix,
	// as carfsim reports it for crc64 at scale 0.04.
	if final == nil || final.WritesByType != [3]uint64{3239, 800, 4001} {
		t.Errorf("closing progress frame %+v, want writes by type [3239 800 4001]", final)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(framesGolden, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(framesGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	gotLines := strings.Split(golden.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", framesGolden, i+1, g, w)
		}
	}
}
