// Package batch runs many independent cycle-accurate simulations in
// lockstep on one goroutine. Submitters (scheduler workers) park their
// simulation with Run and block; a single driver goroutine repeatedly
// steps every parked simulation one time slice at a time. Compared to
// running each simulation on its own goroutine, the driver keeps a
// bounded working set of hot simulator state resident and removes the
// scheduler-point churn of many goroutines leapfrogging each other on
// few cores.
//
// Correctness rests entirely on the simulator's RunChunk contract
// (pipeline.CPU.RunChunk): the cycle sequence is identical however it
// is sliced, so every statistic a batched run reports is bit-identical
// to the scalar path. The golden differential suites enforce this.
package batch

import (
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"sync"
)

// Slice is the lockstep round length in cycles. One round steps every
// active lane Slice cycles before returning to the first. The value
// trades locality (longer runs per lane) against batch formation lag
// (a new submission waits at most one round to join); it is at least
// the pipeline's interrupt-poll mask so cancellation latency does not
// regress versus the scalar loop.
const Slice = 4096

// Sim is one resumable simulation. pipeline.CPU implements it.
type Sim interface {
	// RunChunk advances up to budget cycles and reports whether the
	// simulation completed. A non-nil error is terminal.
	RunChunk(budget int64) (done bool, err error)
}

// Executor steps up to width parked simulations in lockstep rounds.
// The zero Executor is not usable; call NewExecutor.
type Executor struct {
	width int

	mu      sync.Mutex
	queue   []*lane
	driving bool
}

type lane struct {
	sim  Sim
	done chan error
}

// NewExecutor returns an executor batching up to width simulations
// (width < 1 is treated as 1).
func NewExecutor(width int) *Executor {
	if width < 1 {
		width = 1
	}
	return &Executor{width: width}
}

// Width reports the executor's lane bound.
func (e *Executor) Width() int { return e.width }

// Label names this executor's engine for provenance ("batch<width>").
func (e *Executor) Label() string { return fmt.Sprintf("batch%d", e.width) }

// Run parks s in the executor and blocks until it completes, returning
// the terminal error from RunChunk (nil on normal completion). The
// caller owns s before Run and again after Run returns; the channel
// handoff orders driver writes before the caller's Finalize, so the
// race detector sees the transfer. Cancellation is the simulation's
// own concern (an interrupt hook returning an error ends the run).
func (e *Executor) Run(s Sim) error {
	ln := &lane{sim: s, done: make(chan error, 1)}
	e.mu.Lock()
	e.queue = append(e.queue, ln)
	if !e.driving {
		// Lazily start a driver; it exits when the queue drains.
		e.driving = true
		go e.drive()
	}
	e.mu.Unlock()
	return <-ln.done
}

// drive is the lockstep loop: refill active lanes from the queue up to
// width, step each one Slice cycles, retire finished lanes, repeat.
func (e *Executor) drive() {
	var active []*lane
	for {
		e.mu.Lock()
		for len(active) < e.width && len(e.queue) > 0 {
			active = append(active, e.queue[0])
			e.queue[0] = nil
			e.queue = e.queue[1:]
		}
		if len(active) == 0 {
			e.driving = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()

		kept := active[:0]
		for _, ln := range active {
			done, err := ln.sim.RunChunk(Slice)
			if done {
				ln.done <- err
			} else {
				kept = append(kept, ln)
			}
		}
		for i := len(kept); i < len(active); i++ {
			active[i] = nil
		}
		active = kept
	}
}

// EnvVar selects the process-default batch width for simulation runs:
// unset or <= 1 means the scalar loop, N >= 2 means lockstep batches of
// N. Commands (carfstudy, carfserve) inherit it without
// flags of their own.
const EnvVar = "CARF_BATCH"

// MaxEnvWidth caps EnvVar: each lane in a lockstep batch parks a full
// simulation (pipeline state + goroutine), so widths beyond this are a
// typo ("4096" for "4"), not a plan.
const MaxEnvWidth = 1024

// EnvWidth reads EnvVar. Malformed or out-of-range values never
// silently misbehave: they fall back to scalar (1) — or clamp to
// MaxEnvWidth — with a logged warning saying what was rejected.
func EnvWidth() int {
	return envWidth(os.Getenv(EnvVar), slog.Default())
}

// envWidth is EnvWidth with its inputs injected, for tests.
func envWidth(v string, log *slog.Logger) int {
	if v == "" {
		return 1
	}
	n, err := strconv.Atoi(v)
	switch {
	case err != nil:
		log.Warn("batch: ignoring malformed "+EnvVar+" (want an integer width); running scalar",
			"value", v, "err", err)
		return 1
	case n < 1:
		log.Warn("batch: ignoring non-positive "+EnvVar+"; running scalar", "value", v)
		return 1
	case n > MaxEnvWidth:
		log.Warn("batch: clamping oversized "+EnvVar, "value", v, "max", MaxEnvWidth)
		return MaxEnvWidth
	}
	return n
}

var (
	sharedMu sync.Mutex
	shared   = map[int]*Executor{}
)

// Shared returns the process-wide executor for the given width,
// creating it on first use. Sharing one executor per width lets every
// concurrently-running study contribute lanes to the same batches.
func Shared(width int) *Executor {
	if width < 1 {
		width = 1
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if e, ok := shared[width]; ok {
		return e
	}
	e := NewExecutor(width)
	shared[width] = e
	return e
}
