package pipeline

import (
	"carf/internal/profile"
	"carf/internal/regfile"
)

// profState is the per-CPU attribution state (Observe.Profile; nil when
// profiling is off — the fast path pays one nil check per cycle).
//
// The stages run each cycle leave small breadcrumbs here (why rename
// stalled, whether a spill fired, what the current fetch bubble is
// for); profCycle turns them into one CPI-stack charge at the end of
// the cycle and clears the per-cycle ones.
type profState struct {
	prof *profile.Profiler

	// D-cache latency thresholds derived from the hierarchy config: a
	// recorded load latency above l1dHit was served past the L1D, above
	// l2Hit by main memory.
	l1dHit int
	l2Hit  int

	// Per-cycle breadcrumbs, reset by profCycle.
	renameBlock profile.Category // why rename stalled; CatCommit = it didn't
	spilled     bool             // a forced overflow spill fired this cycle
	longIssue   bool             // issue was throttled by Long-file pressure

	// resume is what the current fetch bubble (now < fetchResume) is
	// charged to — CatBranch after a misprediction redirect, CatFrontend
	// after an I-cache miss or decode redirect. Sticky until the next
	// bubble starts.
	resume profile.Category

	// writePC is the PC of the instruction currently writing back, so
	// the register file's write reporter can attribute the outcome.
	writePC uint64
}

// installProfiler resets p to an empty CPI stack and per-PC profile
// sized to this core and attaches it: it hooks the cache hierarchy's
// miss observer, the gshare mispredict observer, and (when the model
// supports it) the register file's write reporter. Without it the
// simulation path is unchanged apart from one nil check per cycle.
func (c *CPU) installProfiler(p *profile.Profiler) {
	*p = profile.Profiler{
		Stack: profile.NewCPIStack(c.cfg.CommitWidth),
		PCs:   profile.NewPCProfile(c.mach.Prog),
	}
	pp := &profState{
		prof:        p,
		l1dHit:      c.cfg.Hierarchy.L1D.HitLatency,
		l2Hit:       c.cfg.Hierarchy.L1D.HitLatency + c.cfg.Hierarchy.L2.HitLatency,
		renameBlock: profile.CatCommit,
		resume:      profile.CatFrontend,
	}
	c.pp = pp
	c.hier.SetMissObserver(func(pc, addr uint64, instr, mem bool) {
		if instr {
			p.PCs.OnFetchMiss(pc)
		} else {
			p.PCs.OnDataMiss(pc, mem)
		}
	})
	c.gshare.SetMispredictObserver(p.PCs.OnMispredict)
	if wr, ok := c.model.(regfile.WriteReporter); ok {
		wr.SetWriteReporter(func(typ regfile.ValueType, spilled bool) {
			p.PCs.OnWrite(pp.writePC, typ, spilled)
		})
	}
}

// profCycle closes out one counted cycle: the commit-slot deficit is
// charged to exactly one category and the per-cycle breadcrumbs reset.
// cycle() calls it iff it also counts the cycle (now++/Cycles++), which
// is what makes the stack's slot identity hold exactly.
func (c *CPU) profCycle(committed int) {
	pp := c.pp
	blame := profile.CatBase
	if committed < c.cfg.CommitWidth {
		blame = c.blameCategory()
	}
	pp.prof.Stack.Account(committed, blame)
	pp.renameBlock = profile.CatCommit
	pp.spilled = false
	pp.longIssue = false
}

// blameCategory picks the single category charged for this cycle's
// commit-slot deficit, in priority order:
//
//  1. a forced overflow spill (rarest, most specific RF event);
//  2. the ROB head executed but cannot write back: Recovery-State
//     retries blame the Long file, otherwise a pending load miss blames
//     the level that served it;
//  3. the head issued and is executing (or waiting out write-back
//     latency): a recorded rename-stall reason wins, else base —
//     execution/dependency latency;
//  4. the head has not issued: Long-pressure issue throttling, then the
//     rename-stall reason, then base (operands not ready);
//  5. an empty ROB is fetch starvation: an unresolved mispredict blames
//     branch recovery, an active fetch bubble blames whoever started it
//     (branch redirect or frontend), anything else (decode latency) the
//     frontend.
func (c *CPU) blameCategory() profile.Category {
	pp := c.pp
	if pp.spilled {
		return profile.CatRFSpill
	}
	if c.rob.Len() > 0 {
		head := c.rob.Front()
		if head.issued {
			if !head.wbOK && head.execDone < c.now {
				if head.wbStall > 0 {
					return profile.CatRFLong
				}
			}
			if !head.wbOK && head.isLoad && head.memLat > pp.l1dHit {
				if head.memLat > pp.l2Hit {
					return profile.CatMem
				}
				return profile.CatL2
			}
			if pp.renameBlock != profile.CatCommit {
				return pp.renameBlock
			}
			return profile.CatBase
		}
		if pp.longIssue {
			return profile.CatRFLong
		}
		if pp.renameBlock != profile.CatCommit {
			return pp.renameBlock
		}
		return profile.CatBase
	}
	if c.fetchBlock != nil {
		return profile.CatBranch
	}
	if c.now < c.fetchResume {
		return pp.resume
	}
	return profile.CatFrontend
}
