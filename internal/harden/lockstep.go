package harden

import (
	"fmt"

	"carf/internal/isa"
	"carf/internal/vm"
)

// Lockstep co-simulates an independent golden vm.Machine, stepping it
// once per committed instruction and diffing every architectural effect
// the pipeline reports. The pipeline's own run-ahead machine executes at
// fetch (including down speculative paths that later squash), so the
// lockstep model is a second, commit-ordered machine: after n commits it
// holds exactly the architectural state of the first n instructions.
type Lockstep struct {
	golden *vm.Machine
	ring   *CommitRing
	steps  uint64
}

// NewLockstep builds a lockstep checker over a fresh machine loaded with
// prog, keeping up to ringSize recent commits for diagnostics.
func NewLockstep(prog *vm.Program, ringSize int) *Lockstep {
	return &Lockstep{golden: vm.New(prog), ring: NewCommitRing(ringSize)}
}

// Release hands the golden machine's private memory pages back for
// reuse (vm.Memory.Release); its registers stay readable.
func (l *Lockstep) Release() { l.golden.Mem.Release() }

// Steps returns the number of commits checked so far.
func (l *Lockstep) Steps() uint64 { return l.steps }

// Ring returns the most recent commits, oldest first.
func (l *Lockstep) Ring() []CommitRecord { return l.ring.Snapshot() }

// ArchRegs returns the golden model's integer register state — the
// architecturally correct values after every commit checked so far. The
// sweep diffs the pipeline's retirement-map reconstruction against it.
func (l *Lockstep) ArchRegs() [isa.NumRegs]uint64 { return l.golden.X }

// diverge builds the structured error for the first disagreement.
func (l *Lockstep) diverge(rec CommitRecord, field string, got, want uint64, detail string) *DivergenceError {
	return &DivergenceError{
		Cycle:  rec.Cycle,
		Record: rec,
		Field:  field,
		Got:    got,
		Want:   want,
		Detail: detail,
	}
}

// OnCommit steps the golden model once and diffs it against the commit
// the pipeline just retired. It returns nil when the effects agree, or
// the first divergence (the caller attaches the diagnostic bundle and
// stops the run).
func (l *Lockstep) OnCommit(rec CommitRecord) *DivergenceError {
	defer l.ring.Push(rec)

	if pc := l.golden.PC; pc != rec.PC {
		return l.diverge(rec, "pc", rec.PC, pc, "commit stream left the golden path")
	}
	inst, eff, err := l.golden.Step()
	if err != nil {
		return l.diverge(rec, "execute", 0, 0, fmt.Sprintf("golden model: %v", err))
	}
	l.steps++
	if inst != rec.Inst {
		return l.diverge(rec, "instruction", 0, 0,
			fmt.Sprintf("pipeline committed %q, golden fetched %q", rec.Inst, inst))
	}

	goldenWritesInt := eff.WritesReg && eff.RdClass == isa.RegInt
	if goldenWritesInt != rec.WritesInt {
		return l.diverge(rec, "rd class", b2u(rec.WritesInt), b2u(goldenWritesInt),
			"integer destination presence disagrees")
	}
	if goldenWritesInt {
		if rec.Rd != eff.Rd {
			return l.diverge(rec, "rd", uint64(rec.Rd), uint64(eff.Rd), "")
		}
		if rec.RdValue != eff.RdValue {
			return l.diverge(rec, "rd value", rec.RdValue, eff.RdValue,
				"pipeline oracle value disagrees with golden execution")
		}
		if rec.ArchOK && rec.ArchValue != eff.RdValue {
			return l.diverge(rec, "register file reconstruction", rec.ArchValue, eff.RdValue,
				"sub-file reconstruction disagrees with golden execution")
		}
	}

	if rec.Store != eff.Store {
		return l.diverge(rec, "store", b2u(rec.Store), b2u(eff.Store), "memory effect presence disagrees")
	}
	if eff.Store {
		if rec.Addr != eff.Addr {
			return l.diverge(rec, "store address", rec.Addr, eff.Addr, "")
		}
		if uint64(rec.Size) != uint64(eff.Size) {
			return l.diverge(rec, "store size", uint64(rec.Size), uint64(eff.Size), "")
		}
		if rec.StoreVal != eff.StoreVal {
			return l.diverge(rec, "store value", rec.StoreVal, eff.StoreVal, "")
		}
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
