package pipeline

import (
	"context"
	"errors"

	"carf/internal/cache"
	"carf/internal/regfile"
	"carf/internal/vm"
)

// SMT runs two hardware threads that share one integer register file
// organization and one memory hierarchy (§6 of the paper: the long
// file's average occupancy is far below its peak, so one content-aware
// file can feed more than one thread). Pipeline resources are statically
// partitioned: each thread gets half the widths, queues, and functional
// units — the simple policy of early SMT designs, sufficient to study
// register file sharing.
type SMT struct {
	threads [2]*CPU
	hier    *cache.Hierarchy // shared by both threads
	cycles  uint64
	policy  SMTPolicy
}

// SMTPolicy selects the thread-priority policy (§6: "what are the best
// thread priority policies for this kind of simultaneous multithreading
// architecture" — two are implemented).
type SMTPolicy uint8

const (
	// PolicyRoundRobin gives both threads their full static partition
	// every cycle.
	PolicyRoundRobin SMTPolicy = iota
	// PolicyLongAware throttles the thread holding more live Long
	// registers whenever the shared Long file is under pressure,
	// protecting the other thread from pseudo-deadlock stalls.
	PolicyLongAware
)

// String implements fmt.Stringer.
func (p SMTPolicy) String() string {
	if p == PolicyLongAware {
		return "long-aware"
	}
	return "round-robin"
}

// SetPolicy selects the thread-priority policy (before RunContext).
func (s *SMT) SetPolicy(p SMTPolicy) { s.policy = p }

// NewSMT builds a two-thread machine running progs against a single
// shared register file model. cfg describes the whole core; each thread
// receives half of every partitionable resource.
func NewSMT(cfg Config, progs [2]*vm.Program, model regfile.Model) *SMT {
	half := cfg
	half.FetchWidth = max1(cfg.FetchWidth / 2)
	half.IssueWidth = max1(cfg.IssueWidth / 2)
	half.CommitWidth = max1(cfg.CommitWidth / 2)
	half.ROBSize = max1(cfg.ROBSize / 2)
	half.IntQueue = max1(cfg.IntQueue / 2)
	half.FPQueue = max1(cfg.FPQueue / 2)
	half.LSQSize = max1(cfg.LSQSize / 2)
	half.IntUnits = max1(cfg.IntUnits / 2)
	half.FPUnits = max1(cfg.FPUnits / 2)
	half.DCachePorts = max1(cfg.DCachePorts / 2)
	half.NumFPRegs = max1(cfg.NumFPRegs / 2)

	s := &SMT{hier: mustHierarchy("NewSMT", cfg.Hierarchy)}
	for i, prog := range progs {
		s.threads[i] = newCPU(half, prog, model, s.hier)
	}
	return s
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

// Thread returns thread i's CPU (stats, machine inspection).
func (s *SMT) Thread(i int) *CPU { return s.threads[i] }

// Cycles returns the total machine cycles simulated.
func (s *SMT) Cycles() uint64 { return s.cycles }

// RunContext simulates until both threads halt and returns their
// statistics, in the slice loop CPU.RunContext runs in (see drive).
// Each thread advances one cycle at a time through CPU.RunChunk, so its
// no-progress and hardening checks end the run. A run that ends
// otherwise than canceled is finalized: model faults fail it with
// Finalize's error, and a clean run hands each thread's tables, the
// shared register file's (once) and the shared hierarchy back for
// reuse, under Finalize's lifetime rule. A
// finished SMT cannot run again. Of obs, SMT honours Every and Frame
// only.
func (s *SMT) RunContext(ctx context.Context, obs Observe) ([2]Stats, error) {
	err := errFinalized
	if obs.Series != nil || obs.Trace != nil || obs.Profile != nil || obs.Live != nil {
		err = errors.New("pipeline: SMT observes only Every and Frame")
	} else if !s.threads[0].finalized {
		err = drive(ctx, s, obs)
	}
	return [2]Stats{s.threads[0].stats, s.threads[1].stats}, err
}

// chunk simulates up to budget machine cycles: each applies the
// thread-priority policy, then steps each thread once (a halted thread
// stays put).
func (s *SMT) chunk(budget int64) (bool, error) {
	for n := int64(0); n < budget && !s.halted(); n++ {
		s.applyPolicy()
		for _, t := range s.threads {
			if _, err := t.RunChunk(1); err != nil {
				return true, err
			}
		}
		s.cycles++
	}
	return s.halted(), nil
}

func (s *SMT) halted() bool { return s.threads[0].done && s.threads[1].done }

func (s *SMT) sample() {}

// finish finalizes both threads and, after a clean run, releases the
// shared hierarchy.
func (s *SMT) finish(runErr error) error {
	err := runErr
	for _, t := range s.threads {
		if _, ferr := t.Finalize(); err == nil {
			err = ferr
		}
	}
	if err == nil {
		s.hier.Release()
	}
	return err
}

// progress snapshots the machine for Observe.Frame: its own cycles, both
// threads' instructions and structure occupancies summed, and the
// shared register file's write counts.
func (s *SMT) progress(final bool) Progress {
	p, q := s.threads[0].progress(final), s.threads[1].progress(final)
	p.Cycles = s.cycles
	p.Instructions += q.Instructions
	p.ROB, p.IntIQ, p.FPIQ, p.LSQ = p.ROB+q.ROB, p.IntIQ+q.IntIQ, p.FPIQ+q.FPIQ, p.LSQ+q.LSQ
	return p
}

// applyPolicy sets each thread's issue-hold flag for the coming cycle.
func (s *SMT) applyPolicy() {
	t0, t1 := s.threads[0], s.threads[1]
	t0.issueHold, t1.issueHold = false, false
	if s.policy != PolicyLongAware {
		return
	}
	// Pressure check against the shared file: hold the hungrier thread.
	if !t0.model.LongStall(t0.cfg.longStallThreshold() * 2) {
		return
	}
	if t0.longOwned >= t1.longOwned {
		t0.issueHold = !t0.done && !t1.done
	} else {
		t1.issueHold = !t0.done && !t1.done
	}
}

// Machine exposes a thread's architectural state for verification.
func (c *CPU) Machine() *vm.Machine { return c.mach }
