package sched

import (
	"time"
)

// Progress is one live snapshot of an executing run, produced by the
// run's own body (the simulator's progress hook) and enriched by the
// scheduler before fan-out: the body fills the simulation-domain fields
// (cycles, instructions, interval window, occupancies, write mix), the
// scheduler's reporter stamps Target, the wall-clock fields, and the
// ETA. Frames for one run are monotonic in Cycles and Insts.
type Progress struct {
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

	// Writes is the cumulative per-array register file write mix
	// (whole file, or Simple/Short/Long for the content-aware
	// organization).
	Writes [3]uint64 `json:"writes,omitempty"`

	// Final marks the run's closing frame (totals equal the final
	// statistics). Final frames bypass the throttle — every watcher
	// sees the run reach its end state.
	Final bool `json:"final,omitempty"`

	// Target is stamped by the body; the rest by the scheduler.
	Target         uint64  `json:"target,omitempty"`          // known instruction budget (0 = unknown)
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"` // wall time since the sim started
	InstsPerSec    float64 `json:"insts_per_sec,omitempty"`   // retirement rate over the whole run
	ETASeconds     float64 `json:"eta_seconds,omitempty"`     // (target-insts)/rate; 0 when unknowable
}

// Pct returns completion in [0,1], or -1 when the target is unknown.
func (p Progress) Pct() float64 {
	if p.Target == 0 {
		return -1
	}
	if p.Insts >= p.Target {
		return 1
	}
	return float64(p.Insts) / float64(p.Target)
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
func (s *Scheduler) reporter(id uint64, obs Observer, on ProgressFunc, simStart time.Time) ProgressFunc {
	var last time.Time
	return func(p Progress) {
		now := time.Now()
		if !p.Final {
			if gap := time.Duration(s.progressEvery.Load()); gap > 0 && !last.IsZero() && now.Sub(last) < gap {
				return
			}
		}
		last = now
		p.ElapsedSeconds = now.Sub(simStart).Seconds()
		if p.ElapsedSeconds > 0 {
			p.InstsPerSec = float64(p.Insts) / p.ElapsedSeconds
		}
		if p.Target > p.Insts && p.InstsPerSec > 0 {
			p.ETASeconds = float64(p.Target-p.Insts) / p.InstsPerSec
		}
		if obs != nil {
			obs.RunProgressed(id, p)
		}
		if on != nil {
			on(p)
		}
	}
}
