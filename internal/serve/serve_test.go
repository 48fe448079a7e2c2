package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"carf/internal/sched"
	"carf/internal/store"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// newTestDaemon builds a daemon over an isolated scheduler with a
// controllable job body: jobs block until release is closed.
func newTestDaemon(t *testing.T, o Options) (*Daemon, *httptest.Server) {
	t.Helper()
	if o.Scheduler == nil {
		o.Scheduler = sched.New(2)
	}
	if o.Logger == nil {
		o.Logger = testLogger()
	}
	d := New(o)
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return d, ts
}

// blockingRun returns a runJob body that parks until release closes
// (or the job context dies), plus the release func.
func blockingRun() (func(ctx context.Context, j *Job) (string, sched.Stats, error), func()) {
	release := make(chan struct{})
	var once sync.Once
	fn := func(ctx context.Context, j *Job) (string, sched.Stats, error) {
		select {
		case <-release:
			return "released " + j.ID + "\n", sched.Stats{Runs: 1, Misses: 1}, nil
		case <-ctx.Done():
			return "", sched.Stats{Runs: 1, Canceled: 1}, ctx.Err()
		}
	}
	return fn, func() { once.Do(func() { close(release) }) }
}

func submit(t *testing.T, ts *httptest.Server, client string, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/api/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Carf-Client", client)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

const expBody = `{"experiment":"table2","scale":0.04}`

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestDaemon(t, Options{})
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"experiment":"nope"}`, http.StatusBadRequest},
		{`{"kernel":"nope"}`, http.StatusBadRequest},
		{`{"experiment":"table2","kernel":"qsort"}`, http.StatusBadRequest},
		{`{"kernel":"qsort","organization":"bogus"}`, http.StatusBadRequest},
		{`{"experiment":"table2","scale":-1}`, http.StatusBadRequest},
	} {
		resp := submit(t, ts, "c1", tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("submit %s: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
}

func TestPerClientQueueBound(t *testing.T) {
	run, release := blockingRun()
	defer release()
	_, ts := newTestDaemon(t, Options{
		MaxJobs: 100, MaxJobsPerClient: 2, RunningJobs: 1,
		runJob: run,
	})

	// Client A fills its own bound.
	for i := 0; i < 2; i++ {
		resp := submit(t, ts, "client-a", expBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d, want 202", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Client A's third is shed with 429 + Retry-After.
	resp := submit(t, ts, "client-a", expBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", ra)
	}
	resp.Body.Close()

	// Client B is unaffected by A's saturation.
	resp = submit(t, ts, "client-b", expBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("client-b submit: status %d, want 202 (bounds are per client)", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestGlobalBoundAndHealthUnderSaturation(t *testing.T) {
	run, release := blockingRun()
	defer release()
	_, ts := newTestDaemon(t, Options{
		MaxJobs: 3, MaxJobsPerClient: 100, RunningJobs: 1,
		runJob: run,
	})
	for i := 0; i < 3; i++ {
		resp := submit(t, ts, fmt.Sprintf("c%d", i), expBody)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := submit(t, ts, "c-extra", expBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated 429 missing Retry-After")
	}
	resp.Body.Close()

	// A saturated server must still answer /healthz and /metrics
	// promptly — the whole point of shedding instead of absorbing.
	for _, path := range []string{"/healthz", "/metrics", "/runs", "/api/v1/runs"} {
		start := time.Now()
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while saturated: %v", path, err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while saturated: status %d", path, r.StatusCode)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("GET %s took %v while saturated", path, d)
		}
		if path == "/healthz" {
			var h map[string]any
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatalf("healthz not JSON: %v", err)
			}
			if h["status"] != "ok" {
				t.Fatalf("healthz status %v under saturation, want ok", h["status"])
			}
			if h["jobs_active"].(float64) != 3 {
				t.Fatalf("healthz jobs_active = %v, want 3", h["jobs_active"])
			}
		}
		if path == "/metrics" && !bytes.Contains(body, []byte("carf_serve_jobs_active 3")) {
			t.Fatalf("/metrics missing carf_serve_jobs_active 3:\n%s", body)
		}
	}

	// Releasing the jobs frees the bound: new submissions are admitted.
	release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := submit(t, ts, "c-late", expBody)
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission still shed %ds after release (status %d)", 5, code)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitStatus(t *testing.T, ts *httptest.Server, id string, want string) Job {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		j := decode[Job](t, resp)
		if j.Status == want {
			return j
		}
		if j.Status == StatusFailed && want != StatusFailed {
			t.Fatalf("job %s failed: %s", id, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, j.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobLifecycleAndResult(t *testing.T) {
	_, ts := newTestDaemon(t, Options{
		runJob: func(ctx context.Context, j *Job) (string, sched.Stats, error) {
			return "rendered output for " + j.Spec.Experiment + "\n", sched.Stats{Runs: 5, Misses: 5}, nil
		},
	})
	resp := submit(t, ts, "c1", expBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	acc := decode[map[string]string](t, resp)
	id := acc["id"]
	j := waitStatus(t, ts, id, StatusDone)
	if j.Sched == nil || j.Sched.Runs != 5 {
		t.Fatalf("job sched summary missing or wrong: %+v", j.Sched)
	}

	r, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", r.StatusCode)
	}
	if string(body) != "rendered output for table2\n" {
		t.Fatalf("result body %q", body)
	}

	// Unknown id paths.
	for _, p := range []string{"/api/v1/runs/r-999999", "/api/v1/runs/r-999999/result"} {
		r, err := ts.Client().Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", p, r.StatusCode)
		}
	}
}

func TestResultBeforeDoneSaysRetry(t *testing.T) {
	run, release := blockingRun()
	defer release()
	_, ts := newTestDaemon(t, Options{runJob: run})
	resp := submit(t, ts, "c1", expBody)
	acc := decode[map[string]string](t, resp)
	r, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + acc["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("result before done: status %d, want 202", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Fatal("202 result response missing Retry-After")
	}
}

func TestCancelRun(t *testing.T) {
	run, release := blockingRun()
	defer release()
	_, ts := newTestDaemon(t, Options{runJob: run})
	resp := submit(t, ts, "c1", expBody)
	acc := decode[map[string]string](t, resp)
	id := acc["id"]
	waitStatus(t, ts, id, StatusRunning)

	req, _ := http.NewRequest("DELETE", ts.URL+"/api/v1/runs/"+id, nil)
	r, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", r.StatusCode)
	}
	j := waitStatus(t, ts, id, StatusCanceled)
	if j.Error == "" {
		t.Fatal("canceled job has empty error")
	}
}

func TestShutdownDrains(t *testing.T) {
	run, release := blockingRun()
	sch := sched.New(2)
	d := New(Options{Scheduler: sch, runJob: run, Logger: testLogger()})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	resp := submit(t, ts, "c1", expBody)
	acc := decode[map[string]string](t, resp)
	id := acc["id"]
	waitStatus(t, ts, id, StatusRunning)

	// Shutdown must wait for the in-flight job; release it mid-drain.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- d.Shutdown(ctx)
	}()

	// While draining, new submissions get 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := submit(t, ts, "c2", expBody)
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain: status %d, want 503", code)
		}
		time.Sleep(5 * time.Millisecond)
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained job finished cleanly, not canceled.
	d.mu.Lock()
	j := d.jobs[id]
	status, result := j.Status, j.result
	d.mu.Unlock()
	if status != StatusDone {
		t.Fatalf("drained job status %q, want done", status)
	}
	if result == "" {
		t.Fatal("drained job has no result")
	}
}

func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	run, release := blockingRun()
	defer release()
	sch := sched.New(2)
	d := New(Options{Scheduler: sch, runJob: run, Logger: testLogger()})
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()

	resp := submit(t, ts, "c1", expBody)
	acc := decode[map[string]string](t, resp)
	waitStatus(t, ts, acc["id"], StatusRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown returned nil despite hung job and expired deadline")
	}
	d.mu.Lock()
	status := d.jobs[acc["id"]].Status
	d.mu.Unlock()
	if status != StatusCanceled {
		t.Fatalf("force-canceled job status %q, want canceled", status)
	}
}

// TestRealExperimentAcrossRestart is the tentpole end-to-end: a real
// (tiny) experiment submitted to a store-backed daemon, the daemon torn
// down, a fresh daemon pointed at the same directory, the same
// experiment resubmitted — and the second pass must be served from the
// disk tier (provenance: disk hits, zero simulations) with byte-
// identical rendered output.
func TestRealExperimentAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	body := `{"experiment":"table2","scale":0.04}`

	runOnce := func() (Job, string) {
		st, err := store.Open(store.Options{Dir: dir, Schema: "serve-test/v1", Logger: testLogger()})
		if err != nil {
			t.Fatal(err)
		}
		d := New(Options{Scheduler: sched.New(2), Store: st, Logger: testLogger(), JobTimeout: 2 * time.Minute})
		ts := httptest.NewServer(d.Handler())
		defer ts.Close()
		resp := submit(t, ts, "c1", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		acc := decode[map[string]string](t, resp)
		j := waitStatus(t, ts, acc["id"], StatusDone)
		r, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + acc["id"] + "/result")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(r.Body)
		r.Body.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		return j, string(text)
	}

	j1, text1 := runOnce()
	if j1.Sched.Misses == 0 {
		t.Fatalf("first pass simulated nothing: %+v", j1.Sched)
	}
	j2, text2 := runOnce()
	if j2.Sched.Misses != 0 {
		t.Fatalf("second pass (fresh process, same store) re-simulated %d runs: %+v", j2.Sched.Misses, j2.Sched)
	}
	if j2.Sched.DiskHits == 0 {
		t.Fatalf("second pass shows no disk-tier hits: %+v", j2.Sched)
	}
	if text1 != text2 {
		t.Fatalf("disk-served output differs from simulated output:\n--- first\n%s\n--- second\n%s", text1, text2)
	}
}

// TestKernelJobAcrossRestart covers the kernel-submission path end to
// end, including persistence of carf.Result.
func TestKernelJobAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	dir := t.TempDir()
	body := `{"kernel":"crc64","scale":0.04}`

	runOnce := func() (Job, string) {
		st, err := store.Open(store.Options{Dir: dir, Schema: "serve-kernel-test/v1", Logger: testLogger()})
		if err != nil {
			t.Fatal(err)
		}
		d := New(Options{Scheduler: sched.New(2), Store: st, Logger: testLogger(), JobTimeout: 2 * time.Minute})
		ts := httptest.NewServer(d.Handler())
		defer ts.Close()
		resp := submit(t, ts, "c1", body)
		acc := decode[map[string]string](t, resp)
		j := waitStatus(t, ts, acc["id"], StatusDone)
		r, err := ts.Client().Get(ts.URL + "/api/v1/runs/" + acc["id"] + "/result")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(r.Body)
		r.Body.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		return j, string(text)
	}

	j1, text1 := runOnce()
	if j1.Sched.Misses != 1 {
		t.Fatalf("first kernel pass: %+v", j1.Sched)
	}
	j2, text2 := runOnce()
	if j2.Sched.DiskHits != 1 || j2.Sched.Misses != 0 {
		t.Fatalf("second kernel pass not a disk hit: %+v", j2.Sched)
	}
	if text1 != text2 {
		t.Fatalf("kernel result differs across restart:\n%s\nvs\n%s", text1, text2)
	}
	var res map[string]any
	if err := json.Unmarshal([]byte(text1), &res); err != nil {
		t.Fatalf("kernel result is not JSON: %v", err)
	}
	if res["IPC"].(float64) <= 0 {
		t.Fatalf("kernel result IPC %v", res["IPC"])
	}
}

// TestListSubmissionOrder: GET /api/v1/runs lists jobs in submission
// order, also where the zero-padded id widens (a string sort would put
// r-1000000 before r-999999).
func TestListSubmissionOrder(t *testing.T) {
	d, ts := newTestDaemon(t, Options{
		runJob: func(ctx context.Context, j *Job) (string, sched.Stats, error) {
			return "ok\n", sched.Stats{}, nil
		},
	})
	d.mu.Lock()
	d.nextID = 999_998
	d.mu.Unlock()
	for i := 0; i < 2; i++ {
		acc := decode[map[string]string](t, submit(t, ts, "c1", expBody))
		waitStatus(t, ts, acc["id"], StatusDone)
	}
	resp, err := ts.Client().Get(ts.URL + "/api/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	list := decode[struct{ Runs []Job }](t, resp)
	var ids []string
	for _, j := range list.Runs {
		ids = append(ids, j.ID)
	}
	if len(ids) != 2 || ids[0] != "r-999999" || ids[1] != "r-1000000" {
		t.Errorf("listed %v, want [r-999999 r-1000000]", ids)
	}
}
