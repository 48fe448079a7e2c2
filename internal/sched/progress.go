package sched

import (
	"time"
)

// Progress is one live snapshot of an executing run: the only
// progress value above the simulator. The run's body fills the
// simulation-domain fields (cycles, instructions, interval window,
// occupancies, write counts) and Target; Stamp fills Label, Pct and the
// wall-clock fields. Frames for one run are monotonic in Cycles and
// Insts.
type Progress struct {
	// Label names the run the way the telemetry run table does.
	Label string `json:"label,omitempty"`

	// Simulation-domain fields (set by the run's body).
	Cycles uint64 `json:"cycles"`
	Insts  uint64 `json:"insts"`

	// Interval window: deltas between consecutive hook reports, and the
	// window's IPC — the live phase behaviour.
	IntervalCycles uint64  `json:"interval_cycles,omitempty"`
	IntervalInsts  uint64  `json:"interval_insts,omitempty"`
	IntervalIPC    float64 `json:"interval_ipc,omitempty"`

	// Structure occupancies at the report cycle.
	ROB   int `json:"rob,omitempty"`
	IntIQ int `json:"int_iq,omitempty"`
	FPIQ  int `json:"fp_iq,omitempty"`
	LSQ   int `json:"lsq,omitempty"`

	// ArrayWrites is the cumulative write traffic of each physical
	// register array (the whole file, or the Simple, Short and Long
	// arrays of the content-aware organization); WritesByType is the
	// content-aware file's write mix by value class (Simple, Short,
	// Long), zero for conventional files.
	ArrayWrites  [3]uint64 `json:"array_writes"`
	WritesByType [3]uint64 `json:"writes_by_type"`

	// Final marks the run's closing frame (totals equal the final
	// statistics). Final frames bypass the throttle — every watcher
	// sees the run reach its end state.
	Final bool `json:"final,omitempty"`

	// Target is stamped by the body; the rest by Stamp.
	Target         uint64  `json:"target,omitempty"`          // known instruction budget (0 = unknown)
	Pct            float64 `json:"pct"`                       // Insts/Target in [0,1]; -1 when the target is unknown
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"` // wall time since the sim started
	InstsPerSec    float64 `json:"insts_per_sec,omitempty"`   // retirement rate over the whole run
	ETASeconds     float64 `json:"eta_seconds,omitempty"`     // (target-insts)/rate; 0 when unknowable
}

// Stamp fills the watcher-facing fields: the run's label, completion
// against Target, and, from the wall time since the simulation
// started, the elapsed time, the retirement rate and the ETA. It
// overwrites every field it owns, so a frame stamped twice carries the
// second stamp only.
func (p *Progress) Stamp(label string, elapsed time.Duration) {
	p.Label = label
	p.Pct = -1
	if p.Target > 0 {
		p.Pct = min(float64(p.Insts)/float64(p.Target), 1)
	}
	p.ElapsedSeconds = elapsed.Seconds()
	p.InstsPerSec, p.ETASeconds = 0, 0
	if p.ElapsedSeconds > 0 {
		p.InstsPerSec = float64(p.Insts) / p.ElapsedSeconds
	}
	if p.Target > p.Insts && p.InstsPerSec > 0 {
		p.ETASeconds = float64(p.Target-p.Insts) / p.InstsPerSec
	}
}

// ProgressFunc receives progress frames. The scheduler hands one to a
// DoProgress body (the "report" function) and accepts one from callers
// wanting per-run frames (the "onProgress" callback).
type ProgressFunc func(Progress)

// DefaultProgressInterval is the minimum wall-clock gap between
// forwarded non-final progress frames per run. The simulator's hook
// fires every few thousand cycles (hundreds of times per second);
// forwarding each would flood the SSE plane, so the reporter thins them
// to a human-readable rate.
const DefaultProgressInterval = 100 * time.Millisecond

// SetProgressInterval sets the per-run minimum gap between forwarded
// non-final progress frames (0 forwards every frame — tests use this
// for determinism). Safe to call at any time; in-flight runs pick the
// new value up on their next frame.
func (s *Scheduler) SetProgressInterval(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.progressEvery.Store(int64(d))
}

// reporter builds the per-run report function handed to a DoProgress
// body. It is called from the simulating goroutine only (the leader),
// so its throttle state needs no lock; the observer and onProgress
// callbacks must themselves be safe for concurrent use across runs.
func (s *Scheduler) reporter(id uint64, label string, obs Observer, on ProgressFunc, simStart time.Time) ProgressFunc {
	var last time.Time
	return func(p Progress) {
		now := time.Now()
		if !p.Final {
			if gap := time.Duration(s.progressEvery.Load()); gap > 0 && !last.IsZero() && now.Sub(last) < gap {
				return
			}
		}
		last = now
		p.Stamp(label, now.Sub(simStart))
		if obs != nil {
			obs.RunProgressed(id, p)
		}
		if on != nil {
			on(p)
		}
	}
}
