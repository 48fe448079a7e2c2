// Package harden is the simulator's runtime verification and fault
// injection layer. It supplies the building blocks the pipeline wires in
// when checking is enabled:
//
//   - a lockstep co-simulator (Lockstep) that steps an independent
//     vm.Machine golden model once per committed instruction and diffs
//     architectural register writes and memory effects, reporting the
//     first divergence as a structured DivergenceError with a ring of
//     recent commits;
//   - invariant vocabulary (Violation, Checker, FaultReporter) used by
//     the pipeline's periodic sweeps and by the register file models'
//     self-checks (free-list accounting, §2 reconstruction identity,
//     Short reference-bit consistency);
//   - a watchdog (Watchdog) that converts zero-commit livelock or
//     deadlock — including a stuck §3.2 Recovery State — into a bounded
//     DeadlockError instead of an infinite loop;
//   - deterministic fault injection (Fault, Injector, Rand) for seeded
//     campaigns that flip bits in the Simple/Short/Long arrays, corrupt
//     free lists, and drop reference-bit clears, so the checkers'
//     detection coverage and latency can be measured.
//
// Every failure carries a diagnostic Bundle: a snapshot of headline
// statistics, the run's metric series values, and the most recent commits.
// The package depends only on the ISA and the golden model, so the
// pipeline, core, and regfile packages can all import it.
package harden

import (
	"fmt"
	"strings"

	"carf/internal/isa"
)

// Options selects which checkers a hardened run enables. The zero value
// disables everything (Enabled reports false, the pipeline's fast path).
type Options struct {
	// Lockstep steps the golden model at every commit and diffs
	// architectural effects (Config.Check mode).
	Lockstep bool
	// SweepEvery runs the invariant sweeps each time this many cycles
	// elapse (0 disables sweeps).
	SweepEvery uint64
	// WatchdogAfter trips the watchdog after this many cycles without a
	// commit (0 disables the watchdog).
	WatchdogAfter uint64
	// RingSize bounds the ring of recent commits kept for diagnostics
	// (0 uses DefaultRingSize).
	RingSize int
}

// DefaultRingSize is the commit-ring capacity when Options.RingSize is 0.
const DefaultRingSize = 16

// Enabled reports whether any checker is on.
func (o Options) Enabled() bool {
	return o.Lockstep || o.SweepEvery > 0 || o.WatchdogAfter > 0
}

// Ring returns the configured commit-ring capacity.
func (o Options) Ring() int {
	if o.RingSize > 0 {
		return o.RingSize
	}
	return DefaultRingSize
}

// CommitRecord is the architectural effect of one committed instruction,
// as observed by the timing pipeline.
type CommitRecord struct {
	Seq   uint64
	Cycle uint64
	PC    uint64
	Inst  isa.Inst

	// Integer destination (WritesInt only).
	WritesInt bool
	Rd        isa.Reg
	RdValue   uint64 // the oracle value carried through the pipeline
	ArchValue uint64 // the value reconstructed from the register file
	ArchOK    bool   // ArchValue is meaningful

	// Memory effect.
	Store    bool
	Addr     uint64
	Size     int
	StoreVal uint64
}

// String renders one ring line.
func (r CommitRecord) String() string {
	s := fmt.Sprintf("seq=%d cycle=%d pc=%#x %s", r.Seq, r.Cycle, r.PC, r.Inst)
	if r.WritesInt {
		s += fmt.Sprintf(" x%d=%#x", r.Rd, r.RdValue)
	}
	if r.Store {
		s += fmt.Sprintf(" mem[%#x]<-%#x(%dB)", r.Addr, r.StoreVal, r.Size)
	}
	return s
}

// Violation is one failed invariant check.
type Violation struct {
	// Check names the invariant ("freelist", "reconstruction",
	// "rob-order", "refbits", "fault-log", ...).
	Check string
	// Detail describes what was observed.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Metric is one named series value captured into a Bundle.
type Metric struct {
	Name  string
	Value float64
}

// Bundle is the diagnostic context attached to every hardening failure:
// where the machine was, headline statistics, the metric series values
// (when the run samples its series), and the most recent commits.
type Bundle struct {
	Cycle           uint64
	PC              uint64
	LastCommitCycle uint64

	Notes   []string // headline statistics, one "name=value" per entry
	Metrics []Metric // metric series values (nil when the series is off)
	Commits []CommitRecord
	Trace   []string // tail of the pipeline trace (when a tracer is attached)
}

// Format renders the bundle for a report.
func (b *Bundle) Format() string {
	if b == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycle %d, pc %#x, last commit at cycle %d\n", b.Cycle, b.PC, b.LastCommitCycle)
	if len(b.Notes) > 0 {
		fmt.Fprintf(&sb, "stats: %s\n", strings.Join(b.Notes, " "))
	}
	for _, m := range b.Metrics {
		fmt.Fprintf(&sb, "metric %-32s %g\n", m.Name, m.Value)
	}
	if len(b.Commits) > 0 {
		fmt.Fprintf(&sb, "last %d commits:\n", len(b.Commits))
		for _, r := range b.Commits {
			fmt.Fprintf(&sb, "  %s\n", r)
		}
	}
	if len(b.Trace) > 0 {
		fmt.Fprintf(&sb, "last %d trace events:\n", len(b.Trace))
		for _, t := range b.Trace {
			fmt.Fprintf(&sb, "  %s\n", t)
		}
	}
	return sb.String()
}

// DivergenceError reports the first disagreement between the pipeline's
// committed architectural effects and the golden model.
type DivergenceError struct {
	Cycle  uint64
	Record CommitRecord // the diverging commit as the pipeline saw it
	Field  string       // which effect disagreed ("pc", "rd value", ...)
	Got    uint64       // pipeline's value
	Want   uint64       // golden model's value
	Detail string       // extra context (golden disassembly, step error)
	Bundle *Bundle
}

// Error implements error.
func (e *DivergenceError) Error() string {
	s := fmt.Sprintf("harden: lockstep divergence at cycle %d, seq %d, pc %#x (%s): %s: got %#x want %#x",
		e.Cycle, e.Record.Seq, e.Record.PC, e.Record.Inst, e.Field, e.Got, e.Want)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}

// InvariantError reports failed invariant sweeps.
type InvariantError struct {
	Cycle      uint64
	Violations []Violation
	Bundle     *Bundle
}

// Error implements error.
func (e *InvariantError) Error() string {
	parts := make([]string, len(e.Violations))
	for i, v := range e.Violations {
		parts[i] = v.String()
	}
	return fmt.Sprintf("harden: %d invariant violation(s) at cycle %d: %s",
		len(e.Violations), e.Cycle, strings.Join(parts, "; "))
}

// DeadlockError reports a zero-commit livelock or deadlock caught by the
// watchdog.
type DeadlockError struct {
	Cycle           uint64
	LastCommitCycle uint64
	StalledFor      uint64
	PC              uint64
	Bundle          *Bundle
}

// Error implements error.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("harden: watchdog: no commit for %d cycles at cycle %d (last commit at %d, pc %#x)",
		e.StalledFor, e.Cycle, e.LastCommitCycle, e.PC)
}

// Checker is implemented by register file models that can audit their
// own structural invariants (free-list accounting, encoding consistency,
// reference-bit bookkeeping). The pipeline's sweep calls it and folds
// the violations into an InvariantError.
type Checker interface {
	CheckInvariants() []Violation
}

// FaultReporter is implemented by models that record internal faults
// (e.g. a double free) instead of panicking; the sweep surfaces them.
type FaultReporter interface {
	Faults() []string
}
