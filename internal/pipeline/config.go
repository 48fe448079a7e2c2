// Package pipeline implements the cycle-level out-of-order superscalar
// core of Table 1: 8-wide fetch/issue/commit, a 128-entry reorder
// buffer, 32-entry integer and floating-point issue queues, a 64-entry
// load/store queue, gshare branch prediction, and the Table 1 memory
// hierarchy. The integer register file organization is pluggable
// (regfile.Model): the baseline and unlimited conventional files, or the
// content-aware file from internal/core with its two-stage register read
// (RF1/RF2), two-stage write-back (WR1/WR2), extra bypass level, and
// issue-stall pseudo-deadlock prevention.
//
// Functional execution happens in program order at fetch against the
// vm.Machine golden model (sim-outorder style); the timing model replays
// structural and data dependences on top. Branch mispredictions stall
// fetch until the branch resolves in execute — wrong-path instructions
// are not injected (see DESIGN.md §6 for the implications).
package pipeline

import (
	"fmt"

	"carf/internal/cache"
	"carf/internal/harden"
	"carf/internal/isa"
	"carf/internal/predictor"
)

// Config collects every architectural parameter of the simulated core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	ROBSize  int
	IntQueue int
	FPQueue  int
	LSQSize  int

	IntUnits    int // integer functional units (latency IntLatency)
	FPUnits     int // floating-point units (latency FPLatency)
	IntLatency  int
	FPLatency   int
	DCachePorts int // concurrent loads per cycle

	NumFPRegs int // conventional FP physical register file size

	// FrontLatency is the number of cycles between fetch and rename
	// (decode stages).
	FrontLatency int

	// BypassDepth is how many cycles after execute a result remains
	// catchable in the bypass network. 0 means "match the register
	// file's write-back depth" (one level per write stage: the paper's
	// baseline has one level, the content-aware file adds one more).
	BypassDepth int

	// LongStallThreshold stalls issue when the content-aware file's
	// free long-register count falls to this value (§3.2 prevention).
	// 0 means "use IssueWidth".
	LongStallThreshold int

	// DeadlockSpillAfter force-writes a blocked result through the
	// overflow path after this many stalled cycles at the ROB head
	// (hard pseudo-deadlock resolution).
	DeadlockSpillAfter int

	Hierarchy  cache.HierarchyConfig
	Gshare     predictor.GshareConfig
	BTBEntries int
	RASDepth   int

	// Clusters splits the integer execution core into value-type
	// clusters (§6's first direction): 0 or 1 is the unified machine;
	// 2 gives each cluster half the integer units, with a one-cycle
	// penalty for operands produced in the other cluster.
	Clusters int
	// ClusterSteerRoundRobin steers instructions to clusters
	// alternately instead of by result value type (the control
	// experiment showing why type steering matters).
	ClusterSteerRoundRobin bool

	// PortContention enforces the register file's read/write port
	// counts as per-cycle bandwidth limits: operand reads that miss the
	// bypass network compete for read ports at issue, and results
	// compete for write ports at write-back. Off by default — the paper
	// treats port reduction as orthogonal (§3, §7) — and enabled by the
	// port-sweep experiment to measure the §4 claims (8R costs ~0.17%
	// IPC, 6W ~0.21%).
	PortContention bool

	// WrongPath enables speculative wrong-path execution after
	// mispredicted conditional branches: phantom instructions consume
	// rename tags, queue slots, cache bandwidth, and register file
	// energy until the branch resolves and squashes them. Off by
	// default (the paper-aligned configuration); the "wrongpath"
	// experiment quantifies the difference.
	WrongPath bool

	// MaxInstructions bounds a run (0 = run to HALT).
	MaxInstructions uint64

	// Harden enables the runtime verification layer: lockstep
	// co-simulation at commit, periodic invariant sweeps, and the
	// zero-commit watchdog. The zero value (all checkers off) is the
	// fast path and adds no per-cycle work.
	Harden harden.Options
}

// DefaultConfig returns the Table 1 processor.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,

		ROBSize:  128,
		IntQueue: 32,
		FPQueue:  32,
		LSQSize:  64,

		IntUnits:    8,
		FPUnits:     8,
		IntLatency:  1,
		FPLatency:   2,
		DCachePorts: 2,

		NumFPRegs: 128,

		FrontLatency:       2,
		DeadlockSpillAfter: 200,

		Hierarchy:  cache.DefaultHierarchy(),
		Gshare:     predictor.GshareConfig{HistoryBits: 14},
		BTBEntries: 2048,
		RASDepth:   16,
	}
}

// longStallThreshold resolves LongStallThreshold's 0 default. Issue
// calls it every cycle, so it takes a pointer: a value receiver copied
// the whole Config each time.
func (c *Config) longStallThreshold() int {
	if c.LongStallThreshold > 0 {
		return c.LongStallThreshold
	}
	return c.IssueWidth
}

// Validate checks the configuration for values that would build a
// non-functional machine: zero widths, queues, units, or ports,
// an FP file too small for the architectural registers, out-of-range
// cluster counts, and inconsistent cache geometry. NewChecked and the
// CLIs call it before a run starts; New assumes it has been run.
func (c Config) Validate() error {
	positive := []struct {
		name string
		v    int
	}{
		{"FetchWidth", c.FetchWidth},
		{"IssueWidth", c.IssueWidth},
		{"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize},
		{"IntQueue", c.IntQueue},
		{"FPQueue", c.FPQueue},
		{"LSQSize", c.LSQSize},
		{"IntUnits", c.IntUnits},
		{"FPUnits", c.FPUnits},
		{"IntLatency", c.IntLatency},
		{"FPLatency", c.FPLatency},
		{"DCachePorts", c.DCachePorts},
		{"BTBEntries", c.BTBEntries},
	}
	for _, p := range positive {
		if p.v <= 0 {
			return fmt.Errorf("pipeline: %s %d must be positive", p.name, p.v)
		}
	}
	nonNegative := []struct {
		name string
		v    int
	}{
		{"FrontLatency", c.FrontLatency},
		{"BypassDepth", c.BypassDepth},
		{"LongStallThreshold", c.LongStallThreshold},
		{"DeadlockSpillAfter", c.DeadlockSpillAfter},
		{"RASDepth", c.RASDepth},
	}
	for _, p := range nonNegative {
		if p.v < 0 {
			return fmt.Errorf("pipeline: %s %d must not be negative", p.name, p.v)
		}
	}
	if c.NumFPRegs <= isa.NumRegs {
		return fmt.Errorf("pipeline: NumFPRegs %d must exceed the %d architectural registers (renaming needs headroom)",
			c.NumFPRegs, isa.NumRegs)
	}
	if c.Clusters < 0 || c.Clusters > 2 {
		return fmt.Errorf("pipeline: Clusters %d must be 0, 1, or 2", c.Clusters)
	}
	if err := c.Hierarchy.Valid(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	return nil
}
