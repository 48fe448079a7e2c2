package pipeline

import (
	"context"
	"errors"
	"fmt"

	"carf/internal/metrics"
	"carf/internal/profile"
)

// Observe is everything that watches one run, handed to RunContext.
// Every field is optional; the zero Observe watches nothing. It is an
// argument rather than a Config field because Config is digested by
// value into scheduler cache keys (DESIGN.md §12), and no observer
// changes a single statistic.
type Observe struct {
	// Every is the frame length in cycles (0 = defaultEvery). RunContext
	// simulates in slices of Every cycles; between slices it checks its
	// context, records a Series sample and hands Frame a Progress.
	Every uint64

	// Frame receives a Progress at every slice boundary and a Final one
	// after the last cycle, whose totals equal the returned Stats. It
	// runs on the simulating goroutine and must return quickly.
	Frame func(Progress)

	// Series, when non-nil, receives the core's metric series (pipeline,
	// register file, caches, predictors; see seriesTable): one sample per
	// frame, at every multiple of Every, plus a closing sample at the
	// run's last cycle, which replaces a slice boundary's sample at the
	// same cycle. Its totals equal the returned Stats.
	Series *metrics.TimeSeries

	// Trace receives one event per committed instruction, in commit
	// order.
	Trace Tracer

	// Profile, when non-nil, is reset and filled with this core's CPI
	// stack and per-PC attribution (see profState).
	Profile *profile.Profiler

	// Live receives the live integer register values every LivePeriod
	// cycles (the Figure 1/2 oracle). It fires inside the cycle loop,
	// independently of Every.
	Live       LiveSampler
	LivePeriod int
}

// LiveSampler receives periodic snapshots of the live integer register
// values (the Figure 1/2 oracle). The slice is reused between calls;
// implementations must not retain it.
type LiveSampler interface {
	Sample(values []uint64)
}

// defaultEvery is the frame length of an Observe without Every.
// Cancellation and frames are checked between slices, never inside the
// cycle loop: every 4096 cycles keeps both off the hot path
// (sub-microsecond granularity is pointless for multi-second sims)
// without perturbing any statistic.
const defaultEvery = 4096

// Progress is one live snapshot of an executing simulation, handed to
// Observe.Frame: cumulative totals, the delta since the previous report
// (the "interval window"), the structural queue occupancies at the
// report cycle, and the register file's write counts. Reports are
// advisory — producing them never changes a single statistic, so a
// run's results are bit-identical with the callback on or off.
type Progress struct {
	Cycles       uint64
	Instructions uint64

	// Interval window: deltas since the previous report (or since cycle
	// zero for the first). IntervalIPC is the window's throughput —
	// phase behaviour that the cumulative IPC smooths away.
	IntervalCycles       uint64
	IntervalInstructions uint64
	IntervalIPC          float64

	// Structure occupancies at the report cycle.
	ROB   int
	IntIQ int
	FPIQ  int
	LSQ   int

	// ArrayWrites is the cumulative write traffic of each physical
	// register array, in Model.Files() order: the whole file for
	// conventional organizations (index 0), and the Simple, Short and
	// Long arrays of the content-aware one. Every content-aware write
	// lands in the Simple array, so this is not the write mix.
	ArrayWrites [3]uint64

	// WritesByType is the cumulative write mix by value class (Simple,
	// Short, Long) of a content-aware file, as carfsim reports it; zero
	// for files that do not classify values.
	WritesByType [3]uint64

	// Final marks the closing report RunContext emits after the last
	// cycle; its totals equal the returned Stats.
	Final bool
}

// Run simulates until the program's HALT commits (or the instruction
// budget is exhausted) and returns the statistics. With hardening
// enabled, the first lockstep divergence or invariant violation ends
// the run with its structured error, and the watchdog converts a
// zero-commit hang into a harden.DeadlockError; without it, a blunt
// idle limit still bounds a hung machine.
func (c *CPU) Run() (Stats, error) {
	return c.RunContext(context.Background(), Observe{})
}

// RunContext is Run driven in slices of obs.Every cycles, watched by
// obs (see drive). A canceled run resumes with another RunContext call
// given the same obs.
func (c *CPU) RunContext(ctx context.Context, obs Observe) (Stats, error) {
	if obs.Live != nil && obs.LivePeriod <= 0 {
		return c.stats, errors.New("pipeline: Observe.Live needs a positive LivePeriod")
	}
	if c.fan != nil {
		if err := c.followRefusal(obs); err != nil {
			return c.stats, err
		}
	}
	c.install(obs)
	err := drive(ctx, c, obs)
	return c.stats, err
}

// machine is what drive runs: a CPU, or the two-thread SMT. finish
// finalizes a run that can never continue, reporting runErr, the run's
// own error, over model faults.
type machine interface {
	chunk(budget int64) (done bool, err error)
	sample()
	progress(final bool) Progress
	finish(runErr error) error
}

// drive is the one slice loop every simulation runs in. It steps m in
// slices of obs.Every cycles; between slices it records a Series
// sample, checks ctx — a canceled run stops, unfinalized, with an
// error wrapping ctx.Err() — and hands obs.Frame a snapshot. A run that
// ends, completed or failed by its chunk, takes a closing sample and is
// finished; a completed one closes with a Final frame.
func drive(ctx context.Context, m machine, obs Observe) error {
	every := int64(obs.Every)
	if every == 0 {
		every = defaultEvery
	}
	var last Progress // the previous report: the interval window's start
	for {
		done, err := m.chunk(every)
		m.sample()
		if err != nil {
			return m.finish(err)
		}
		if done {
			break
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pipeline: run interrupted at cycle %d: %w", m.progress(false).Cycles, err)
		}
		if obs.Frame != nil {
			last = m.progress(false).since(last)
			obs.Frame(last)
		}
	}
	if obs.Frame == nil {
		return m.finish(nil)
	}
	// Snapshot before finish releases the queues the frame counts.
	final := m.progress(true).since(last)
	err := m.finish(nil)
	obs.Frame(final)
	return err
}

func (c *CPU) chunk(budget int64) (bool, error) { return c.RunChunk(budget) }

func (c *CPU) finish(runErr error) error {
	_, err := c.Finalize()
	if runErr != nil {
		return runErr
	}
	return err
}

// install attaches obs to the core. The series rows and the profiler
// hooks are installed once: a resumed run keeps the first call's.
func (c *CPU) install(obs Observe) {
	c.obs = obs
	if obs.Series != nil && c.series == nil {
		c.series = newSeries(c)
		obs.Series.Names = c.series.names()
	}
	if obs.Profile != nil && c.pp == nil {
		c.installProfiler(obs.Profile)
	}
}

// writeClassifier is implemented by register file models that count
// their writes by value class (the content-aware file).
type writeClassifier interface {
	WritesByType() [3]uint64
}

// progress snapshots the machine; since fills in the interval window.
func (c *CPU) progress(final bool) Progress {
	p := Progress{
		Cycles:       c.stats.Cycles,
		Instructions: c.stats.Instructions,
		ROB:          c.rob.Len(),
		IntIQ:        len(c.intIQ),
		FPIQ:         len(c.fpIQ),
		LSQ:          c.lsq.Len(),
		Final:        final,
	}
	model := c.Model()
	for i, f := range model.Files() {
		if i >= len(p.ArrayWrites) {
			break
		}
		p.ArrayWrites[i] = f.Writes
	}
	if wc, ok := model.(writeClassifier); ok {
		p.WritesByType = wc.WritesByType()
	}
	return p
}

// since measures p's interval window from prev, the previous report
// (the zero Progress for the first).
func (p Progress) since(prev Progress) Progress {
	p.IntervalCycles = p.Cycles - prev.Cycles
	p.IntervalInstructions = p.Instructions - prev.Instructions
	if p.IntervalCycles > 0 {
		p.IntervalIPC = float64(p.IntervalInstructions) / float64(p.IntervalCycles)
	}
	return p
}
