package pipeline

import (
	"fmt"

	"carf/internal/harden"
	"carf/internal/isa"
	"carf/internal/regfile"
	"carf/internal/vm"
)

// This file wires the harden package into the pipeline: lockstep
// co-simulation at commit, periodic invariant sweeps, the zero-commit
// watchdog (see Run), deterministic fault injection into the register
// file model, and the diagnostic bundle attached to every failure. All
// of it is gated on Config.Harden — a zero Options leaves c.hard nil
// and costs one pointer test per cycle.

// hardenState is the per-CPU verification state.
type hardenState struct {
	opts harden.Options
	lock *harden.Lockstep
	wd   *harden.Watchdog

	// ring holds recent commits when lockstep (which keeps its own ring)
	// is off but sweeps or the watchdog still want context.
	ring *harden.CommitRing

	// pending faults scheduled via ScheduleFault; retried each cycle
	// from their target cycle until a suitable target exists.
	pending []*pendingFault
	// injected faults, in injection order.
	injected []harden.Outcome

	// err is the first hardening failure; it ends the run.
	err error
}

type pendingFault struct {
	fault harden.Fault
}

func newHardenState(opts harden.Options, prog *vm.Program) *hardenState {
	h := &hardenState{opts: opts}
	if opts.Lockstep {
		h.lock = harden.NewLockstep(prog, opts.Ring())
	}
	if opts.WatchdogAfter > 0 {
		h.wd = harden.NewWatchdog(opts.WatchdogAfter)
	}
	if h.lock == nil {
		h.ring = harden.NewCommitRing(opts.Ring())
	}
	return h
}

// NewChecked validates cfg and the model's capacity before building the
// CPU, returning descriptive errors instead of panicking — the
// constructor for configurations that arrive from outside the codebase
// (CLI flags, experiment sweeps with computed parameters).
func NewChecked(cfg Config, prog *vm.Program, model regfile.Model) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, fmt.Errorf("pipeline: nil program")
	}
	if model == nil {
		return nil, fmt.Errorf("pipeline: nil register file model")
	}
	if n := model.NumTags(); n <= isa.NumRegs {
		return nil, fmt.Errorf("pipeline: register file %s has %d tags; need more than the %d architectural registers",
			model.Name(), n, isa.NumRegs)
	}
	return New(cfg, prog, model), nil
}

// ScheduleFault schedules a deterministic fault injection: from cycle
// f.Cycle on, each cycle attempts to apply the corruption until the
// model reports a suitable target existed. The model must implement
// harden.Injector (the content-aware file does); faults scheduled on
// other models stay uninjected and are reported as such.
func (c *CPU) ScheduleFault(f harden.Fault) {
	if c.hard == nil {
		c.hard = newHardenState(c.cfg.Harden, c.mach.Prog)
	}
	c.hard.pending = append(c.hard.pending, &pendingFault{fault: f})
}

// Injections reports every scheduled fault's injection status, in
// injection order followed by the still-pending ones. The campaign
// driver fills in detection results from Run's error.
func (c *CPU) Injections() []harden.Outcome {
	if c.hard == nil {
		return nil
	}
	out := append([]harden.Outcome(nil), c.hard.injected...)
	for _, p := range c.hard.pending {
		out = append(out, harden.Outcome{Fault: p.fault})
	}
	return out
}

// tryInjectFaults applies every due pending fault whose target exists.
func (c *CPU) tryInjectFaults() {
	inj, ok := c.model.(harden.Injector)
	kept := c.hard.pending[:0]
	for _, p := range c.hard.pending {
		if uint64(c.now) < p.fault.Cycle {
			kept = append(kept, p)
			continue
		}
		if !ok {
			kept = append(kept, p)
			continue
		}
		detail, applied := inj.Inject(p.fault)
		if !applied {
			kept = append(kept, p) // no target yet; retry next cycle
			continue
		}
		c.hard.injected = append(c.hard.injected, harden.Outcome{
			Fault:      p.fault,
			Injected:   true,
			InjectedAt: uint64(c.now),
			Detail:     detail,
		})
	}
	c.hard.pending = kept
}

// checkCommit runs the lockstep co-simulator against the instruction
// that just committed (and maintains the diagnostic commit ring).
func (c *CPU) checkCommit(in *dynInst) error {
	rec := harden.CommitRecord{
		Seq:   in.seq,
		Cycle: uint64(c.now),
		PC:    in.pc,
		Inst:  in.inst,
	}
	if in.eff.WritesReg && in.eff.RdClass == isa.RegInt {
		rec.WritesInt = true
		rec.Rd = in.eff.Rd
		rec.RdValue = in.eff.RdValue
		if c.hard.lock != nil && in.hasDest && !in.destFP {
			if v, ok := c.model.ReadValue(in.destTag); ok {
				rec.ArchValue, rec.ArchOK = v, true
			}
		}
	}
	if in.eff.Store {
		rec.Store = true
		rec.Addr = in.eff.Addr
		rec.Size = in.eff.Size
		rec.StoreVal = in.eff.StoreVal
	}
	if c.hard.lock == nil {
		c.hard.ring.Push(rec)
		return nil
	}
	if d := c.hard.lock.OnCommit(rec); d != nil {
		d.Bundle = c.buildBundle()
		return d
	}
	return nil
}

// checkInvariants is the periodic sweep: pipeline-level structural
// invariants (ROB ordering, rename-map accounting), the §2
// reconstruction identity for every live written tag, the model's own
// structural self-checks and fault log, and — when lockstep is on — the
// full architectural register diff against the golden model.
func (c *CPU) checkInvariants() []harden.Violation {
	var vs []harden.Violation
	add := func(check, format string, args ...any) {
		vs = append(vs, harden.Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
	}

	// ROB ordering: strictly increasing sequence numbers.
	for i := 1; i < c.rob.Len(); i++ {
		prev, cur := c.rob.At(i-1), c.rob.At(i)
		if cur.seq <= prev.seq {
			add("rob-order", "entry %d (seq %d) not older than entry %d (seq %d)",
				i-1, prev.seq, i, cur.seq)
		}
	}

	// Rename-map accounting: every mapped tag is in range and live.
	maps := []struct {
		name string
		m    *[isa.NumRegs]int
	}{{"rename", &c.intMap}, {"retire", &c.retireMap}}
	for _, mp := range maps {
		for r := 0; r < isa.NumRegs; r++ {
			tag := mp.m[r]
			if tag < 0 || tag >= len(c.intLive) {
				add("rename-map", "%s map: x%d -> tag %d out of range", mp.name, r, tag)
				continue
			}
			if !c.intLive[tag] {
				add("rename-map", "%s map: x%d -> tag %d which is not live", mp.name, r, tag)
			}
		}
	}

	vs = append(vs, c.checkWakeup()...)

	// §2 reconstruction identity: every live, written, landed tag must
	// reconstruct to the oracle value recorded at rename.
	for tag := range c.intValue {
		if !c.intLive[tag] || !c.intWrote[tag] || c.intWB[tag] > c.now {
			continue
		}
		if v, ok := c.model.ReadValue(tag); ok && v != c.intValue[tag] {
			add("reconstruction", "tag %d reconstructs %#x, oracle has %#x", tag, v, c.intValue[tag])
		}
	}

	// Model-side structural checks and fault log.
	if ch, ok := c.model.(harden.Checker); ok {
		vs = append(vs, ch.CheckInvariants()...)
	}
	if fr, ok := c.model.(harden.FaultReporter); ok {
		for _, s := range fr.Faults() {
			add("fault-log", "%s", s)
		}
	}

	// Architectural cross-check against the golden model.
	if c.hard.lock != nil {
		regs := c.hard.lock.ArchRegs()
		for r := 0; r < isa.NumRegs; r++ {
			tag := c.retireMap[r]
			if tag < 0 || tag >= len(c.intLive) {
				continue // already reported by the rename-map check
			}
			if v, ok := c.model.ReadValue(tag); ok && v != regs[r] {
				add("arch-state", "x%d (tag %d) reconstructs %#x, golden model has %#x", r, tag, v, regs[r])
			}
		}
	}
	return vs
}

// checkWakeup audits the issue-queue waiter lists (see park): every
// list member is a parked, unissued queue entry whose blocking producer
// is still unissued, the prev/next links agree, and every parked queue
// entry is reachable exactly once from its own tag's head.
func (c *CPU) checkWakeup() []harden.Violation {
	var vs []harden.Violation
	add := func(format string, args ...any) {
		vs = append(vs, harden.Violation{Check: "iq-wakeup", Detail: fmt.Sprintf(format, args...)})
	}
	queues := [][]*dynInst{c.intIQ, c.fpIQ}
	inIQ := make(map[*dynInst]bool, len(c.intIQ)+len(c.fpIQ))
	for _, q := range queues {
		for _, in := range q {
			inIQ[in] = true
		}
	}
	seen := make(map[*dynInst]int)
	walk := func(heads []*dynInst, done []int64, fp bool) {
		for tag, w := range heads {
			var prev *dynInst
			// A corrupted list may cycle; no sound list is longer than
			// the queues it threads.
			for n := 0; w != nil && n <= len(inIQ); n++ {
				switch {
				case w.waitPrev != prev:
					add("tag %d (fp=%v): waiter seq %d does not link back to its predecessor", tag, fp, w.seq)
				case !inIQ[w]:
					add("tag %d (fp=%v): waiter seq %d is not in an issue queue", tag, fp, w.seq)
				case w.issued || w.readyAt != never:
					add("tag %d (fp=%v): waiter seq %d is not parked (issued=%v readyAt=%d)", tag, fp, w.seq, w.issued, w.readyAt)
				case w.waitSrc != (srcRef{tag: tag, fp: fp}):
					add("tag %d (fp=%v): waiter seq %d blocks on %+v", tag, fp, w.seq, w.waitSrc)
				case done[tag] < never:
					add("tag %d (fp=%v): waiter seq %d still parked after its producer issued", tag, fp, w.seq)
				}
				seen[w]++
				prev, w = w, w.waitNext
			}
			if w != nil {
				add("tag %d (fp=%v): waiter list does not terminate", tag, fp)
			}
		}
	}
	walk(c.intWaitHead, c.intDone, false)
	walk(c.fpWaitHead, c.fpDone, true)
	for _, q := range queues {
		for _, in := range q {
			if in.readyAt == never && seen[in] != 1 {
				add("parked seq %d reached %d times from the waiter lists", in.seq, seen[in])
			}
		}
	}
	return vs
}

// buildBundle captures the diagnostic context for a hardening failure:
// headline statistics, the series values when Observe.Series is on
// (a pure read: the samples' interval state does not move), recent
// commits, and the tail of the pipeline trace when a TraceBuffer is
// attached.
func (c *CPU) buildBundle() *harden.Bundle {
	b := &harden.Bundle{
		Cycle:           c.stats.Cycles,
		PC:              c.mach.PC,
		LastCommitCycle: uint64(max64(c.lastCommitCycle, 0)),
	}
	st := c.stats
	b.Notes = []string{
		fmt.Sprintf("instructions=%d", st.Instructions),
		fmt.Sprintf("rob=%d/%d", c.rob.Len(), c.cfg.ROBSize),
		fmt.Sprintf("intiq=%d", len(c.intIQ)),
		fmt.Sprintf("lsq=%d", c.lsq.Len()),
		fmt.Sprintf("rename_stalls=%d", st.RenameStallCycles),
		fmt.Sprintf("long_stalls=%d", st.LongStallCycles),
		fmt.Sprintf("recovery_stalls=%d", st.RecoveryStallCycles),
		fmt.Sprintf("forced_spills=%d", st.ForcedSpills),
		fmt.Sprintf("value_mismatches=%d", st.ValueMismatches),
	}
	if s := c.series; s != nil {
		s.cur = c.read()
		vals := s.values(make([]float64, 0, len(s.rows)), &s.last)
		b.Metrics = make([]harden.Metric, len(s.rows))
		for i, row := range s.rows {
			b.Metrics[i] = harden.Metric{Name: row.name, Value: vals[i]}
		}
	}
	if c.hard != nil {
		if c.hard.lock != nil {
			b.Commits = c.hard.lock.Ring()
		} else if c.hard.ring != nil {
			b.Commits = c.hard.ring.Snapshot()
		}
	}
	if tb, ok := c.obs.Trace.(*TraceBuffer); ok && len(tb.Events) > 0 {
		tail := tb.Events
		if len(tail) > 8 {
			tail = tail[len(tail)-8:]
		}
		for _, ev := range tail {
			b.Trace = append(b.Trace, fmt.Sprintf("seq=%d pc=%#x %s fetch=%d issue=%d wb=%d commit=%d",
				ev.Seq, ev.PC, ev.Inst, ev.Fetch, ev.Issue, ev.WBDone, ev.Commit))
		}
	}
	return b
}
