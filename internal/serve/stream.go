package serve

import (
	"net/http"

	"carf/internal/sched"
)

// JobProgress is a job's most recent live progress snapshot, embedded
// in the job-status document and carried by stream frames. For
// experiment jobs — which run many simulations, possibly in parallel —
// Label names the simulation that produced the snapshot, and Pct is
// that simulation's completion, not the whole experiment's.
type JobProgress struct {
	Label       string  `json:"label,omitempty"`
	Cycles      uint64  `json:"cycles"`
	Insts       uint64  `json:"insts"`
	Target      uint64  `json:"target,omitempty"`
	Pct         float64 `json:"pct"` // [0,1], or -1 when the target is unknown
	IntervalIPC float64 `json:"interval_ipc,omitempty"`
	InstsPerSec float64 `json:"insts_per_sec,omitempty"`
	EtaSeconds  float64 `json:"eta_seconds,omitempty"`
	Final       bool    `json:"final,omitempty"`
}

func toJobProgress(label string, p sched.Progress) *JobProgress {
	return &JobProgress{
		Label:       label,
		Cycles:      p.Cycles,
		Insts:       p.Insts,
		Target:      p.Target,
		Pct:         p.Pct(),
		IntervalIPC: p.IntervalIPC,
		InstsPerSec: p.InstsPerSec,
		EtaSeconds:  p.ETASeconds,
		Final:       p.Final,
	}
}

// JobStreamFrame is one SSE message on GET /api/v1/runs/{id}/stream:
// "progress" frames while the job's simulations execute, then exactly
// one "done" frame carrying the terminal status. A job served without
// simulating (memo or disk tier) streams a single done frame whose
// Note says so — provenance, not silence.
type JobStreamFrame struct {
	Type     string       `json:"type"` // "progress" | "done"
	ID       string       `json:"id"`
	Progress *JobProgress `json:"progress,omitempty"`

	// done frames only.
	Status string `json:"status,omitempty"`
	Note   string `json:"note,omitempty"`
	Err    string `json:"error,omitempty"`
}

// stream serves GET /api/v1/runs/{id}/stream: the job's
// telemetry.Stream — recent progress frames replayed, then followed
// live until the terminal done frame.
func (d *Daemon) stream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no such run %q", id)
		return
	}
	j.stream.ServeHTTP(w, r)
}
