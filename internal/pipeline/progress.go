package pipeline

// Progress is one live snapshot of an executing simulation, handed to
// RunContext's progress callback: cumulative totals, the delta
// since the previous report (the "interval window"), the structural
// queue occupancies at the report cycle, and the register file write
// mix. Reports are advisory — producing them never changes a single
// statistic, so a run's results are bit-identical with the callback on
// or off.
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

	// Writes is the cumulative per-array register file write traffic in
	// Model.Files() order: the whole file for conventional organizations
	// (index 0), and the Simple/Short/Long sub-files for the
	// content-aware one — the live write-class mix.
	Writes [3]uint64

	// SampleCycle is the cycle of the interval sampler's newest sample
	// (InstallMetrics runs only; 0 before the first sample or without a
	// sampler), correlating this frame with the exported series.
	SampleCycle uint64

	// Final marks the closing report RunContext emits after the last
	// cycle; its totals equal the returned Stats.
	Final bool
}

// progressSince snapshots the machine, measuring the interval window
// from prev (the zero Progress for the first report).
func (c *CPU) progressSince(prev Progress, final bool) Progress {
	p := Progress{
		Cycles:       c.stats.Cycles,
		Instructions: c.stats.Instructions,
		ROB:          c.rob.Len(),
		IntIQ:        len(c.intIQ),
		FPIQ:         len(c.fpIQ),
		LSQ:          c.lsq.Len(),
		Final:        final,
	}
	p.IntervalCycles = p.Cycles - prev.Cycles
	p.IntervalInstructions = p.Instructions - prev.Instructions
	if p.IntervalCycles > 0 {
		p.IntervalIPC = float64(p.IntervalInstructions) / float64(p.IntervalCycles)
	}
	for i, f := range c.model.Files() {
		if i >= len(p.Writes) {
			break
		}
		p.Writes[i] = f.Writes
	}
	if c.msampler != nil {
		if sm, ok := c.msampler.Latest(); ok {
			p.SampleCycle = sm.Cycle
		}
	}
	return p
}
