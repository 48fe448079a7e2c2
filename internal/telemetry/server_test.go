package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"carf/internal/sched"
)

// driveScheduler runs a miss, a hit, and an error through a hub-observed
// scheduler so every endpoint has data to serve.
func driveScheduler(t *testing.T, hub *Hub) *sched.Scheduler {
	t.Helper()
	s := sched.New(2)
	s.SetObserver(hub)
	key := sched.KeyOf("telemetry-test", 1)
	for i := 0; i < 2; i++ { // miss, then hit
		if _, _, err := s.DoProgress(context.Background(), key, "sim/gcd/carf", true, nil, func(sched.ProgressFunc) (any, error) {
			return 42, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err := s.DoProgress(context.Background(), sched.KeyOf("telemetry-test", 2), "sim/bad/carf", true, nil, func(sched.ProgressFunc) (any, error) {
		return nil, errBoom
	})
	if err == nil {
		t.Fatal("expected error run to fail")
	}
	return s
}

type boomError struct{}

func (boomError) Error() string { return "boom" }

var errBoom = boomError{}

func TestServerHealthz(t *testing.T) {
	sv := NewServer(NewHub(), nil)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var doc struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" {
		t.Errorf("status = %q, want ok", doc.Status)
	}
	if doc.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", doc.UptimeSeconds)
	}
}

func TestServerRuns(t *testing.T) {
	hub := NewHub()
	s := driveScheduler(t, hub)
	sv := NewServer(hub, s)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc RunsDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.InFlight) != 0 {
		t.Errorf("in_flight = %v, want empty", doc.InFlight)
	}
	if doc.CompletedTotal != 3 || len(doc.Completed) != 3 {
		t.Fatalf("completed = %d rows / total %d, want 3 / 3", len(doc.Completed), doc.CompletedTotal)
	}
	outcomes := map[string]int{}
	for _, r := range doc.Completed {
		outcomes[r.Outcome]++
		if r.State != "done" {
			t.Errorf("run %d state = %q, want done", r.ID, r.State)
		}
		if r.Key == "" || r.Label == "" {
			t.Errorf("run %d missing correlation fields: %+v", r.ID, r)
		}
	}
	if outcomes["miss"] != 2 || outcomes["hit"] != 1 {
		t.Errorf("outcomes = %v, want 2 miss + 1 hit", outcomes)
	}
	var sawErr bool
	for _, r := range doc.Completed {
		if r.Err == "boom" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Errorf("error run's message not surfaced: %+v", doc.Completed)
	}
	if doc.Sched == nil || doc.Sched.Runs != 3 || doc.Sched.Hits != 1 || doc.Sched.Workers != 2 {
		t.Errorf("sched summary = %+v", doc.Sched)
	}
}

func TestServerMetrics(t *testing.T) {
	hub := NewHub()
	s := driveScheduler(t, hub)
	sv := NewServer(hub, s)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteString("\n")
	}
	text := body.String()
	for _, want := range []string{
		"carf_sched_runs 3",
		"carf_sched_hits 1",
		"# TYPE carf_sched_queue_wait_seconds histogram",
		"carf_sched_queue_wait_seconds_count 2", // two misses executed
		"carf_sched_sim_wall_seconds_count 2",
		"carf_telemetry_runs_completed_total 3",
		"carf_go_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

func TestServerSSERoundTrip(t *testing.T) {
	hub := NewHub()
	sv := NewServer(hub, nil)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := make(chan Frame, 16)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev Frame
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev
			}
		}
	}()

	next := func(what string) Frame {
		t.Helper()
		select {
		case ev := <-events:
			return ev
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s event", what)
			return Frame{}
		}
	}

	if ev := next("hello"); ev.Type != "hello" {
		t.Fatalf("first event = %+v, want hello", ev)
	}

	// Drive one run once the stream is subscribed: the start and finish
	// events must arrive in order with matching correlation ids.
	s := sched.New(1)
	s.SetObserver(hub)
	key := sched.KeyOf("sse-test", 1)
	if _, _, err := s.DoProgress(context.Background(), key, "sim/sse/carf", true, nil, func(sched.ProgressFunc) (any, error) {
		return 1, nil
	}); err != nil {
		t.Fatal(err)
	}

	start := next("run-start")
	if start.Type != "run-start" || start.Label != "sim/sse/carf" || start.Key == "" {
		t.Fatalf("run-start = %+v", start)
	}
	finish := next("run-finish")
	if finish.Type != "run-finish" || finish.Outcome != "miss" {
		t.Fatalf("run-finish = %+v", finish)
	}
	if finish.Key != start.Key || finish.ID != start.ID {
		t.Errorf("correlation broken: start %+v vs finish %+v", start, finish)
	}
}
