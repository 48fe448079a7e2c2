package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"carf/internal/sched"
)

// readSSEFrames decodes data: lines from an SSE body into Frames
// until the stream ends or n frames arrive (n <= 0 reads to EOF).
func readSSEFrames(t *testing.T, r *bufio.Reader, n int) []Frame {
	t.Helper()
	var out []Frame
	for n <= 0 || len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			return out
		}
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f Frame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		out = append(out, f)
	}
	return out
}

// TestRunStreamLiveThenTerminal subscribes to an in-flight run's
// stream, sees mid-run progress frames with interval payloads, then the
// terminal done frame when the run completes, after which the stream
// ends.
func TestRunStreamLiveThenTerminal(t *testing.T) {
	hub := NewHub()
	s := sched.New(2)
	s.SetObserver(hub)
	s.SetProgressInterval(0)
	sv := NewServer(hub, s)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	reported := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := s.DoProgress(context.Background(), sched.KeyOf("stream-live"), "sim/qsort/carf", true, nil,
			func(report sched.ProgressFunc) (any, error) {
				report(sched.Progress{Cycles: 1000, Insts: 250, Target: 1000, IntervalCycles: 1000, IntervalInsts: 250, IntervalIPC: 0.25})
				report(sched.Progress{Cycles: 2000, Insts: 500, Target: 1000, IntervalCycles: 1000, IntervalInsts: 250, IntervalIPC: 0.25})
				close(reported)
				<-release
				report(sched.Progress{Cycles: 4000, Insts: 1000, Target: 1000, Final: true})
				return 42, nil
			})
		done <- err
	}()
	<-reported

	// The in-flight run's id comes from the live run table.
	inflight, _, _ := hub.Runs()
	if len(inflight) != 1 {
		t.Fatalf("in-flight runs = %d, want 1", len(inflight))
	}
	id := inflight[0].ID

	resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/runs/%d/stream", id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)

	replayed := readSSEFrames(t, br, 2)
	if len(replayed) != 2 {
		t.Fatalf("replayed %d frames, want the 2 already-reported ones", len(replayed))
	}
	for i, f := range replayed {
		if f.Type != "progress" || f.ID != id || f.Progress == nil {
			t.Fatalf("replay frame %d = %+v, want a progress frame for run %d", i, f, id)
		}
		if f.Progress.IntervalCycles != 1000 || f.Progress.IntervalIPC != 0.25 {
			t.Errorf("replay frame %d interval payload = %+v", i, f.Progress)
		}
		if f.Progress.Target != 1000 {
			t.Errorf("replay frame %d target = %d, want the stamped 1000", i, f.Progress.Target)
		}
	}
	if replayed[1].Progress.Insts <= replayed[0].Progress.Insts {
		t.Errorf("frames not monotonic: %d then %d", replayed[0].Progress.Insts, replayed[1].Progress.Insts)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Following live: the final progress frame, then the terminal frame.
	rest := readSSEFrames(t, br, 0) // reads until the handler closes the stream
	if len(rest) < 2 {
		t.Fatalf("followed %d frames after release, want final progress + done: %+v", len(rest), rest)
	}
	last := rest[len(rest)-1]
	if last.Type != "done" || last.Outcome != "miss" || last.Note != "" {
		t.Errorf("terminal frame = %+v, want a done frame for a simulated run with no provenance note", last)
	}
	prev := rest[len(rest)-2]
	if prev.Type != "progress" || !prev.Progress.Final {
		t.Errorf("penultimate frame = %+v, want the Final progress frame", prev)
	}
}

// TestRunStreamFinishedReplay: a finished run's stream replays retained
// frames ending with the terminal frame and closes immediately.
func TestRunStreamFinishedReplay(t *testing.T) {
	hub := NewHub()
	s := sched.New(2)
	s.SetObserver(hub)
	s.SetProgressInterval(0)
	sv := NewServer(hub, s)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	if _, _, err := s.DoProgress(context.Background(), sched.KeyOf("stream-done"), "sim/crc64/carf", true, nil,
		func(report sched.ProgressFunc) (any, error) {
			report(sched.Progress{Cycles: 10, Insts: 5})
			report(sched.Progress{Cycles: 20, Insts: 10, Final: true})
			return 1, nil
		}); err != nil {
		t.Fatal(err)
	}
	_, completed, _ := hub.Runs()
	if len(completed) != 1 {
		t.Fatalf("completed = %d, want 1", len(completed))
	}
	id := completed[0].ID

	resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/runs/%d/stream", id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSEFrames(t, bufio.NewReader(resp.Body), 0)
	if len(frames) != 3 {
		t.Fatalf("replayed %d frames, want 2 progress + done: %+v", len(frames), frames)
	}
	if frames[2].Type != "done" || frames[2].Outcome != "miss" {
		t.Errorf("terminal frame = %+v", frames[2])
	}
}

// TestRunStreamHitProvenance: a run served from cache streams exactly
// one done frame whose note explains that no simulation ran.
func TestRunStreamHitProvenance(t *testing.T) {
	hub := NewHub()
	s := sched.New(2)
	s.SetObserver(hub)
	sv := NewServer(hub, s)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()

	body := func(sched.ProgressFunc) (any, error) { return 7, nil }
	key := sched.KeyOf("stream-hit")
	for i := 0; i < 2; i++ { // miss, then hit
		if _, _, err := s.DoProgress(context.Background(), key, "sim/bfs/carf", true, nil, body); err != nil {
			t.Fatal(err)
		}
	}
	_, completed, _ := hub.Runs()
	if len(completed) != 2 {
		t.Fatalf("completed = %d, want 2", len(completed))
	}
	var hitID uint64
	found := false
	for _, r := range completed {
		if r.Outcome == "hit" {
			hitID, found = r.ID, true
		}
	}
	if !found {
		t.Fatalf("no hit run in %+v", completed)
	}

	resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/runs/%d/stream", hitID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := readSSEFrames(t, bufio.NewReader(resp.Body), 0)
	if len(frames) != 1 {
		t.Fatalf("hit run streamed %d frames, want exactly 1: %+v", len(frames), frames)
	}
	f := frames[0]
	if f.Type != "done" || f.Outcome != "hit" || !strings.Contains(f.Note, "cache") {
		t.Errorf("hit terminal frame = %+v, want a done frame with a cache provenance note", f)
	}
}

// TestRunStreamUnknownID is a 404, not a hang.
func TestRunStreamUnknownID(t *testing.T) {
	sv := NewServer(NewHub(), nil)
	srv := httptest.NewServer(sv.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/runs/999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestSlowSubscriberDisconnect: an /events follower that stops reading
// is dropped-counted and, once its buffer has stayed full for the stall
// limit, force-closed; the aggregate disconnect counter records it.
func TestSlowSubscriberDisconnect(t *testing.T) {
	hub := NewHub()
	hub.feed.stall = time.Millisecond
	_, ch, cancel := hub.feed.Subscribe()
	defer cancel()

	// Overfill the buffer, wait past the stall limit without draining,
	// and publish once more: the policy trips.
	for i := 0; i <= followerBuf; i++ {
		hub.publish(Frame{Type: "run-start", ID: uint64(i)})
	}
	time.Sleep(5 * time.Millisecond)
	hub.publish(Frame{Type: "run-start", ID: followerBuf + 1})

	closed := false
	deadline := time.After(2 * time.Second)
drain:
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				closed = true
				break drain
			}
		case <-deadline:
			break drain
		}
	}
	if !closed {
		t.Fatal("slow follower's channel was never closed")
	}

	var disconnects, dropped, subs float64
	subs = -1
	for _, r := range hub.MetaReadings() {
		switch r.Name {
		case "telemetry.sse_slow_disconnects_total":
			disconnects = r.Value
		case "telemetry.events_dropped_total":
			dropped = r.Value
		case "telemetry.sse_subscribers":
			subs = r.Value
		}
	}
	if disconnects != 1 {
		t.Errorf("slow disconnects = %v, want 1", disconnects)
	}
	if dropped != 2 {
		t.Errorf("dropped = %v, want 2", dropped)
	}
	if subs != 0 {
		t.Errorf("subscribers = %v, want 0 after the forced disconnect", subs)
	}

	// A healthy follower stays connected and receives frames.
	_, ch2, cancel2 := hub.feed.Subscribe()
	defer cancel2()
	hub.publish(Frame{Type: "run-start", ID: 1})
	select {
	case <-ch2:
	case <-time.After(time.Second):
		t.Fatal("healthy follower did not receive the frame")
	}
}

// TestStream pins the shared frame stream's rules: the replay window,
// the terminal frame, what happens after Finish, the
// drop-but-always-terminate rule for followers that fall behind, and
// the disconnect of one that stops reading.
func TestStream(t *testing.T) {
	progress := func(i int) Frame { return Frame{Type: "progress", ID: uint64(i)} }
	done := Frame{Type: "done", Outcome: "miss"}
	decodeAll := func(t *testing.T, payloads [][]byte) []Frame {
		t.Helper()
		out := make([]Frame, len(payloads))
		for i, p := range payloads {
			if err := json.Unmarshal(p, &out[i]); err != nil {
				t.Fatalf("frame %d %q: %v", i, p, err)
			}
		}
		return out
	}

	cases := []struct {
		name string
		run  func(t *testing.T, s *Stream)
	}{
		{"replay is the last 64 frames in order", func(t *testing.T, s *Stream) {
			for i := 1; i <= 100; i++ {
				if ok, _, _ := s.Publish(progress(i)); !ok {
					t.Fatalf("publish %d refused", i)
				}
			}
			replay, live, cancel := s.Subscribe()
			defer cancel()
			if live == nil {
				t.Fatal("unfinished stream has no live channel")
			}
			frames := decodeAll(t, replay)
			if len(frames) != 64 {
				t.Fatalf("replayed %d frames, want 64", len(frames))
			}
			for i, f := range frames {
				if want := uint64(37 + i); f.ID != want {
					t.Fatalf("replay[%d] = frame %d, want %d", i, f.ID, want)
				}
			}
		}},
		{"finish ends the replay with the terminal frame", func(t *testing.T, s *Stream) {
			s.Publish(progress(1))
			s.Publish(progress(2))
			if !s.Finish(done) {
				t.Fatal("first Finish not accepted")
			}
			replay, live, cancel := s.Subscribe()
			defer cancel()
			if live != nil {
				t.Error("finished stream has a live channel")
			}
			frames := decodeAll(t, replay)
			if len(frames) != 3 || frames[2].Type != "done" || frames[2].Outcome != "miss" {
				t.Errorf("replay = %+v, want 2 progress frames then the done frame", frames)
			}
		}},
		{"publish and a second finish after finish are ignored", func(t *testing.T, s *Stream) {
			s.Finish(done)
			if ok, _, _ := s.Publish(progress(1)); ok {
				t.Error("publish after Finish accepted")
			}
			if s.Finish(Frame{Type: "done", Outcome: "hit"}) {
				t.Error("second Finish accepted")
			}
			replay, _, cancel := s.Subscribe()
			defer cancel()
			frames := decodeAll(t, replay)
			if len(frames) != 1 || frames[0].Outcome != "miss" {
				t.Errorf("replay = %+v, want only the first done frame", frames)
			}
		}},
		{"a full follower drops frames and still gets the terminal frame", func(t *testing.T, s *Stream) {
			_, live, cancel := s.Subscribe()
			defer cancel()
			dropped := 0
			for i := 1; i <= 128+5; i++ {
				_, d, _ := s.Publish(progress(i))
				dropped += d
			}
			if dropped != 5 {
				t.Errorf("dropped %d frames, want 5", dropped)
			}
			s.Finish(done)
			var got []Frame
			for p := range live {
				got = append(got, decodeAll(t, [][]byte{p})...)
			}
			if len(got) != 128+1 {
				t.Fatalf("follower received %d frames, want 128 progress + done", len(got))
			}
			if last := got[len(got)-1]; last.Type != "done" {
				t.Errorf("last frame = %+v, want the done frame", last)
			}
		}},
		{"a follower that stops reading is disconnected without the terminal frame", func(t *testing.T, s *Stream) {
			// The follower stalls past the limit: its buffer stays full
			// and nothing is delivered for longer than s.stall.
			s.stall = time.Millisecond
			_, live, cancel := s.Subscribe()
			defer cancel()
			dropped, disconnected := 0, 0
			publish := func(i int) {
				_, d, c := s.Publish(progress(i))
				dropped, disconnected = dropped+d, disconnected+c
			}
			for i := 1; i <= followerBuf+1; i++ {
				publish(i)
			}
			if disconnected != 0 {
				t.Fatal("disconnected before the stall limit passed")
			}
			time.Sleep(5 * time.Millisecond)
			publish(followerBuf + 2)
			if dropped != 2 || disconnected != 1 {
				t.Errorf("dropped %d, disconnected %d; want 2 and 1", dropped, disconnected)
			}
			s.Finish(done)
			var got []Frame
			for p := range live {
				got = append(got, decodeAll(t, [][]byte{p})...)
			}
			if len(got) != followerBuf {
				t.Fatalf("follower received %d frames, want %d", len(got), followerBuf)
			}
			for _, f := range got {
				if f.Type != "progress" {
					t.Fatalf("disconnected follower received %+v, want only progress frames", f)
				}
			}
		}},
		{"a follower that drains between bursts stays connected", func(t *testing.T, s *Stream) {
			// Each burst overfills the buffer by 100 frames, all well
			// within the stall limit; draining lets the next burst
			// deliver again.
			_, live, cancel := s.Subscribe()
			defer cancel()
			dropped := 0
			for burst := 0; burst < 3; burst++ {
				for i := 0; i < followerBuf+100; i++ {
					_, d, c := s.Publish(progress(i))
					if c != 0 {
						t.Fatalf("burst %d frame %d disconnected the follower", burst, i)
					}
					dropped += d
				}
				for len(live) > 0 {
					<-live
				}
			}
			if dropped != 3*100 {
				t.Errorf("dropped %d, want %d", dropped, 3*100)
			}
			if n := s.followers(); n != 1 {
				t.Errorf("followers = %d, want 1", n)
			}
		}},
		{"a stream with no window and no followers encodes nothing", func(t *testing.T, _ *Stream) {
			s := newStream(0)
			p := sched.Progress{Cycles: 1}
			frame := Frame{Type: "run-progress", Label: "sim/qsort/carf", Progress: &p}
			allocs := testing.AllocsPerRun(100, func() {
				if ok, _, _ := s.Publish(frame); ok {
					t.Error("publish with nobody listening accepted")
				}
			})
			if allocs != 0 {
				t.Errorf("Publish allocated %v times per call, want 0", allocs)
			}
			replay, _, cancel := s.Subscribe()
			defer cancel()
			if len(replay) != 0 {
				t.Errorf("zero-window stream replayed %d frames", len(replay))
			}
		}},
		{"cancel after finish is safe", func(t *testing.T, s *Stream) {
			_, _, cancelLive := s.Subscribe()
			s.Finish(done)
			_, _, cancelDone := s.Subscribe()
			cancelLive()
			cancelLive()
			cancelDone()
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, NewStream()) })
	}
}

// TestRunStreamRetention: the hub keeps the newest 256 finished run
// streams for replay and never evicts an in-flight one.
func TestRunStreamRetention(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(NewServer(hub, nil).Handler())
	defer srv.Close()

	const inflight = 1000
	hub.RunEnqueued(inflight, sched.KeyOf("retention", "in-flight"), "sim/in-flight")
	for id := uint64(1); id <= 257; id++ {
		key := sched.KeyOf("retention", id)
		hub.RunEnqueued(id, key, "sim/finished")
		hub.RunFinished(id, sched.Provenance{Outcome: sched.Hit, Key: key}, nil)
	}

	get := func(id uint64) *http.Response {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + fmt.Sprintf("/runs/%d/stream", id))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get(1)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished run: status %d, want 404", resp.StatusCode)
	}
	resp = get(257)
	frames := readSSEFrames(t, bufio.NewReader(resp.Body), 0)
	resp.Body.Close()
	if len(frames) != 1 || frames[0].Type != "done" || frames[0].ID != 257 {
		t.Errorf("newest finished run replayed %+v, want its done frame", frames)
	}
	if hub.stream(inflight) == nil {
		t.Error("in-flight run's stream was evicted")
	}
	retained := -1.0
	for _, r := range hub.MetaReadings() {
		if r.Name == "telemetry.streams_retained" {
			retained = r.Value
		}
	}
	if retained != 257 {
		t.Errorf("streams retained = %v, want 256 finished + 1 in flight", retained)
	}
}
