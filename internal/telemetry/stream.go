package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// streamFrameCap bounds the replayable progress frames NewStream
// retains: a late subscriber sees the most recent window, not the
// whole history (the terminal frame is always retained separately).
const streamFrameCap = 64

// streamCap bounds finished run streams the hub retains for replay;
// older ones fall off oldest-first. In-flight streams are never
// evicted.
const streamCap = 256

// followerBuf is a live follower's frame buffer. Its channel has one
// more slot, reserved for the terminal frame, so a follower that fell
// behind still learns how the stream ended.
const followerBuf = 128

// sseHeartbeat is the comment interval that keeps idle SSE connections
// from timing out. It is also a stream's default stall limit: a
// follower whose buffer has stayed full, with nothing delivered, for
// this long has stopped reading and is disconnected.
const sseHeartbeat = 15 * time.Second

// Stream is one frame stream: live followers, a replay window of recent
// progress frames, and the terminal frame once finished. Every SSE
// endpoint serves one: each run (/runs/{id}/stream), each carfserve job
// (/api/v1/runs/{id}/stream), and the hub's /events feed, which has no
// replay window. Its own lock keeps high-rate fan-out from contending
// with its owner's tables. Frames are JSON-encoded on the way in.
type Stream struct {
	mu       sync.Mutex
	window   int                       // replayable progress frames kept; 0 keeps none
	stall    time.Duration             // slow-follower limit (sseHeartbeat; tests lower it)
	frames   [][]byte                  // recent progress frames, oldest first
	terminal []byte                    // the done frame; non-nil once finished
	subs     map[chan []byte]time.Time // follower → when it first missed a frame since its last delivery (zero: none)
}

// NewStream returns an empty stream replaying its last 64 progress frames.
func NewStream() *Stream { return newStream(streamFrameCap) }

func newStream(window int) *Stream {
	return &Stream{window: window, stall: sseHeartbeat, subs: map[chan []byte]time.Time{}}
}

// Publish appends a progress frame to the replay window and fans it
// out to live followers without blocking: a follower whose buffer is
// full misses the frame (dropped), and one whose buffer has stayed full
// for the stall limit, with nothing delivered, is disconnected. A burst
// of frames therefore costs a follower that is still reading drops,
// not its connection. ok is false, and nothing happens (not even
// encoding), once the stream has finished, when no window or follower
// would see the frame, or when frame does not encode.
func (s *Stream) Publish(frame Frame) (ok bool, dropped, disconnected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.terminal != nil || (s.window == 0 && len(s.subs) == 0) {
		return false, 0, 0
	}
	payload, err := json.Marshal(frame)
	if err != nil {
		return false, 0, 0
	}
	if s.window > 0 {
		s.frames = append(s.frames, payload)
		if len(s.frames) > s.window {
			s.frames = s.frames[len(s.frames)-s.window:]
		}
	}
	for ch, since := range s.subs {
		switch {
		case len(ch) < followerBuf:
			ch <- payload
			s.subs[ch] = time.Time{}
		case since.IsZero():
			dropped++
			s.subs[ch] = time.Now()
		case time.Since(since) < s.stall:
			dropped++
		default:
			dropped++
			disconnected++
			delete(s.subs, ch)
			close(ch)
		}
	}
	return true, dropped, disconnected
}

// Finish records the terminal frame, hands it to every follower (into
// the slot reserved for it) and closes their channels. Only the first
// call counts; it reports whether this one did. A frame that does not
// encode still terminates the stream, with a minimal done frame.
func (s *Stream) Finish(frame Frame) bool {
	payload, err := json.Marshal(frame)
	if err != nil {
		payload = []byte(`{"type":"done"}`)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.terminal != nil {
		return false
	}
	s.terminal = payload
	for ch := range s.subs {
		ch <- payload
		close(ch)
	}
	s.subs = nil
	return true
}

// Subscribe returns the replayable history — ending with the terminal
// frame if the stream has finished, in which case live is nil — a live
// channel that delivers later frames, the terminal one last, and is
// then closed (a slow follower's is closed early, without it), and a
// cancel function (safe at any time, also after Finish).
func (s *Stream) Subscribe() (replay [][]byte, live <-chan []byte, cancel func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	replay = append([][]byte(nil), s.frames...)
	if s.terminal != nil {
		return append(replay, s.terminal), nil, func() {}
	}
	ch := make(chan []byte, followerBuf+1)
	s.subs[ch] = time.Time{}
	return replay, ch, func() {
		s.mu.Lock()
		delete(s.subs, ch)
		s.mu.Unlock()
	}
}

// followers reports how many live followers the stream has.
func (s *Stream) followers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// ServeHTTP streams the frames as SSE: the retained history first (so
// a late subscriber still sees recent interval samples), then live
// frames until the terminal one. A finished stream replays and closes.
func (s *Stream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	replay, live, cancel := s.Subscribe()
	defer cancel()
	writeSSE(w, r, replay, live)
}

// writeSSE is the one server-sent-events write loop: each frame is one
// `data:` message. It writes replay, then every frame from live until
// live closes (or at once when live is nil) or the client disconnects,
// with heartbeat comments while idle.
func writeSSE(w http.ResponseWriter, r *http.Request, replay [][]byte, live <-chan []byte) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	for _, payload := range replay {
		fmt.Fprintf(w, "data: %s\n\n", payload)
	}
	fl.Flush()
	if live == nil {
		return
	}
	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case payload, ok := <-live:
			if !ok {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", payload)
			fl.Flush()
		}
	}
}
