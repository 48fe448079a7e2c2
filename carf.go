// Package carf is the public API of the content-aware register file
// reproduction: it runs benchmark kernels on a cycle-level out-of-order
// superscalar processor (Table 1 of the paper) with a selectable integer
// register file organization, and regenerates the paper's evaluation.
//
// Quick start:
//
//	res, err := carf.Run("qsort", carf.Config{Organization: carf.ContentAware})
//	fmt.Printf("IPC %.3f, register file energy %.0f\n", res.IPC, res.RegFileEnergy)
//
// The organizations are the paper's three comparands: the
// unlimited-resource file (160×64b, 16R/8W), the baseline file (112×64b,
// 8R/6W), and the content-aware organization that splits the file into
// Simple/Short/Long sub-files around partial value locality. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results.
package carf

import (
	"context"
	"fmt"
	"math"
	"time"

	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/experiments"
	"carf/internal/harden"
	"carf/internal/metrics"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/sched"
	"carf/internal/workload"
)

// Organization names an integer register file organization.
type Organization string

const (
	// Unlimited is the unconstrained reference file (160 entries,
	// 16R/8W ports): the paper's normalization anchor.
	Unlimited Organization = "unlimited"
	// Baseline is the realistic conventional file (112 entries, 8R/6W).
	Baseline Organization = "baseline"
	// ContentAware is the paper's contribution: Simple/Short/Long
	// sub-files exploiting partial value locality.
	ContentAware Organization = "content-aware"
	// ContentAwareCAM is the fully-associative Short file variant
	// (higher IPC, CAM energy cost; rejected in §4).
	ContentAwareCAM Organization = "content-aware-cam"
)

// Organizations lists the selectable organizations.
func Organizations() []Organization {
	return []Organization{Unlimited, Baseline, ContentAware, ContentAwareCAM}
}

// Config selects the register file organization and its parameters.
// The zero value runs the content-aware organization at the paper's
// chosen configuration (112 simple, 8 short, 48 long, d+n = 20) on a
// standard-size workload.
type Config struct {
	// Organization defaults to ContentAware.
	Organization Organization

	// Content-aware parameters (ignored by conventional organizations);
	// zero values take the paper's defaults.
	DPlusN    int // width of the Simple value field (default 20)
	ShortRegs int // Short file entries, power of two (default 8)
	LongRegs  int // Long file entries (default 48)

	// Scale multiplies benchmark work (default 1.0: a few hundred
	// thousand dynamic instructions).
	Scale float64

	// MaxInstructions bounds the simulation (0 = run to completion).
	MaxInstructions uint64

	// MetricsInterval samples every metric series (pipeline
	// throughput and occupancies, sub-file occupancy, cache miss rates,
	// predictor accuracy, ...) each time this many cycles elapse,
	// collecting them into Result.Series, plus a closing sample at the
	// run's last cycle. It is also the progress frame length: with
	// metrics on, RunCtxProgress frames arrive every MetricsInterval
	// cycles instead of every 4096. 0 disables sampling.
	MetricsInterval uint64

	// TraceEvents retains up to this many committed-instruction pipeline
	// trace events in Result.Trace (0 disables tracing, negative is
	// unbounded). Overflow is counted in Result.Trace.Dropped.
	TraceEvents int

	// Check enables the hardening layer for this run: lockstep
	// co-simulation of the golden model at every commit, periodic
	// invariant sweeps over the rename state and register file encodings,
	// and a watchdog that converts a zero-commit hang into a structured
	// error. Roughly doubles run time; off by default.
	Check bool

	// CheckInterval is the invariant-sweep period in cycles when Check is
	// on (0 uses a default of 4096).
	CheckInterval uint64

	// Profile attaches the attribution profiler: a CPI stack charging
	// every commit-slot deficit to one blame category, and a per-PC
	// profile of commits, mispredictions, cache misses, value classes,
	// and spills. Results land in Result.Profile. Off by default (the
	// simulation path then pays one nil check per cycle).
	Profile bool
}

// DefaultCheckInterval is the invariant-sweep period used when Check is
// on and CheckInterval is 0.
const DefaultCheckInterval = 4096

// checkWatchdogAfter is the zero-commit watchdog limit for checked runs:
// far beyond any legitimate stall (the worst §3.2 Recovery State episode
// is bounded by DeadlockSpillAfter = 200 cycles) but well under the
// pipeline's blunt 100k idle limit.
const checkWatchdogAfter = 50000

// Validate reports whether cfg describes a runnable configuration:
// a known organization, in-range content-aware parameters, and sane
// scale. Run calls it; CLIs can call it early for a better message.
func (c Config) Validate() error {
	switch c.Organization {
	case Baseline, Unlimited:
		// Conventional files have no tunable parameters.
	case ContentAware, ContentAwareCAM, "":
		if err := c.params().Validate(); err != nil {
			return fmt.Errorf("carf: %w", err)
		}
	default:
		return fmt.Errorf("carf: unknown organization %q (known: %v)", c.Organization, Organizations())
	}
	if c.Scale < 0 || math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) {
		return fmt.Errorf("carf: scale %v must be a non-negative finite number (0 means the default 1.0)", c.Scale)
	}
	return nil
}

func (c Config) params() core.Params {
	p := core.DefaultParams()
	if c.DPlusN > 0 {
		p.DPlusN = c.DPlusN
	}
	if c.ShortRegs > 0 {
		p.NumShort = c.ShortRegs
	}
	if c.LongRegs > 0 {
		p.NumLong = c.LongRegs
	}
	p.CAMShort = c.Organization == ContentAwareCAM
	return p
}

func (c Config) model() (regfile.Model, error) {
	switch c.Organization {
	case Baseline:
		return regfile.Baseline(), nil
	case Unlimited:
		return regfile.Unlimited(), nil
	case ContentAware, ContentAwareCAM, "":
		p := c.params()
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return core.New(p), nil
	default:
		return nil, fmt.Errorf("carf: unknown organization %q", c.Organization)
	}
}

// Result reports one simulation.
type Result struct {
	Kernel       string
	Organization Organization

	Cycles       uint64
	Instructions uint64
	IPC          float64

	Branches    uint64
	Mispredicts uint64

	// Integer register file operand traffic.
	IntOperands      uint64
	BypassedOperands uint64
	BypassRate       float64

	// Register file physical characterization (normalized model units;
	// meaningful relative to other Results on the same workload).
	RegFileEnergy     float64
	RegFileArea       float64
	RegFileAccessTime float64

	// Content-aware organizations only.
	ReadsByType    [3]uint64 // simple, short, long
	WritesByType   [3]uint64
	AvgLiveLong    float64
	RecoveryStalls uint64

	// Series holds the interval metric samples (Config.MetricsInterval
	// > 0 only); export it with the metrics package writers.
	Series *metrics.TimeSeries

	// Trace holds the retained pipeline trace (Config.TraceEvents != 0
	// only); convert it with pipeline.ChromeTraceEvents for Perfetto.
	Trace *pipeline.TraceBuffer

	// Profile holds the CPI stack and per-PC attribution profile
	// (Config.Profile only); export it with its Write methods.
	Profile *profile.Profiler
}

// Kernels lists the benchmark kernel names (14 integer, 8 FP).
func Kernels() []string { return workload.Names() }

// Run simulates one kernel under cfg.
func Run(kernel string, cfg Config) (Result, error) {
	return RunCtx(context.Background(), kernel, cfg)
}

// Progress is one live snapshot of a running simulation, delivered to
// the callback of RunCtxProgress (and ExperimentOptions.OnProgress):
// the scheduler's progress value, so library callers, the telemetry
// plane and carfserve all see the same fields. Progress is purely
// observational: a run's Result is bit-identical with or without a
// progress callback installed.
type Progress = sched.Progress

// RunCtxProgress is RunCtx with a live progress callback, invoked from
// the simulation loop every 4096 cycles (every Config.MetricsInterval
// cycles when metrics are on) and once more (Final) when the run
// completes. The target instruction budget comes from a fast
// functional pre-run of the kernel (memoized per kernel and scale), so
// Pct and ETASeconds are populated from the first frame; Label is the
// kernel name. on runs on the simulating goroutine and must return
// quickly; a nil on makes the call identical to RunCtx.
func RunCtxProgress(ctx context.Context, kernel string, cfg Config, on func(Progress)) (Result, error) {
	return runCtx(ctx, kernel, cfg, on)
}

// RunCtx is Run with cancellation: the simulation polls ctx
// periodically and aborts with ctx's error once it is canceled or past
// its deadline. The partial run's statistics are discarded — a
// canceled simulation never produces a Result.
func RunCtx(ctx context.Context, kernel string, cfg Config) (Result, error) {
	return runCtx(ctx, kernel, cfg, nil)
}

func runCtx(ctx context.Context, kernel string, cfg Config, on func(Progress)) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	k, err := workload.ByName(kernel, cfg.Scale)
	if err != nil {
		return Result{}, err
	}
	model, err := cfg.model()
	if err != nil {
		return Result{}, err
	}
	pcfg := pipeline.DefaultConfig()
	pcfg.MaxInstructions = cfg.MaxInstructions
	if cfg.Check {
		interval := cfg.CheckInterval
		if interval == 0 {
			interval = DefaultCheckInterval
		}
		pcfg.Harden = harden.Options{
			Lockstep:      true,
			SweepEvery:    interval,
			WatchdogAfter: checkWatchdogAfter,
		}
	}
	cpu, err := pipeline.NewChecked(pcfg, k.Prog, model)
	if err != nil {
		return Result{}, err
	}
	var obs pipeline.Observe
	if cfg.MetricsInterval > 0 {
		obs.Every = cfg.MetricsInterval
		obs.Series = new(metrics.TimeSeries)
	}
	var trace *pipeline.TraceBuffer
	if cfg.TraceEvents != 0 {
		trace = &pipeline.TraceBuffer{Cap: max(cfg.TraceEvents, 0)}
		obs.Trace = trace
	}
	if cfg.Profile {
		obs.Profile = new(profile.Profiler)
	}
	if on != nil {
		target := workload.Budget(k, cfg.Scale)
		if cfg.MaxInstructions > 0 && (target == 0 || cfg.MaxInstructions < target) {
			target = cfg.MaxInstructions
		}
		start := time.Now()
		obs.Frame = func(pp pipeline.Progress) {
			p := experiments.ToSchedProgress(pp, target)
			p.Stamp(kernel, time.Since(start))
			on(p)
		}
	}
	st, err := cpu.RunContext(ctx, obs)
	if err != nil {
		return Result{}, err
	}
	if st.ValueMismatches != 0 {
		return Result{}, fmt.Errorf("carf: %d register file reconstruction mismatches", st.ValueMismatches)
	}
	if cfg.MaxInstructions == 0 {
		if err := k.CheckResult(cpu.Machine()); err != nil {
			return Result{}, fmt.Errorf("carf: %w", err)
		}
	}

	org := cfg.Organization
	if org == "" {
		org = ContentAware
	}
	tech := energy.DefaultTech()
	rep := tech.Organization(model.Files())
	res := Result{
		Kernel:            kernel,
		Organization:      org,
		Cycles:            st.Cycles,
		Instructions:      st.Instructions,
		IPC:               st.IPC(),
		Branches:          st.Branches,
		Mispredicts:       st.Mispredicts,
		IntOperands:       st.IntOperands,
		BypassedOperands:  st.BypassedOperands,
		BypassRate:        st.BypassRate(),
		RegFileEnergy:     rep.TotalEnergy,
		RegFileArea:       rep.TotalArea,
		RegFileAccessTime: rep.WorstTime,
		RecoveryStalls:    st.RecoveryStallCycles,
		Trace:             trace,
		Series:            obs.Series,
		Profile:           obs.Profile,
	}
	if f, ok := model.(*core.File); ok {
		cs := f.Stats()
		res.ReadsByType = cs.ReadsByType
		res.WritesByType = cs.WritesByType
		res.AvgLiveLong = cs.AvgLiveLong()
	}
	return res, nil
}

// Experiments lists the reproducible paper exhibits (figures, tables,
// sensitivity sweeps, extensions) in paper order.
func Experiments() []string { return experiments.Names() }

// DescribeExperiment returns a one-line description of an experiment id.
func DescribeExperiment(name string) string { return experiments.Describe(name) }

// ExperimentOptions tunes an experiment run.
type ExperimentOptions struct {
	// Ctx cancels the experiment: queued simulations abort before
	// starting, running ones stop cooperatively, and the experiment
	// returns ctx's error. nil means context.Background().
	Ctx context.Context

	// Scale multiplies benchmark work (default 0.25 — experiments run
	// many simulations).
	Scale float64

	// Parallel bounds the number of simulations in flight at once.
	// The bound is global: every experiment in the process shares one
	// scheduler pool, so concurrent RunExperiment calls never exceed it
	// combined. 0 leaves the current bound (initially GOMAXPROCS).
	Parallel int

	// OnProgress, when non-nil, receives live progress frames from every
	// simulation the experiment actually executes (memoized and joined
	// runs do no work and report nothing). The callback must be safe for
	// concurrent use — parallel simulations report concurrently — and is
	// purely observational: rendered experiment output is byte-identical
	// with or without it.
	OnProgress func(Progress)
}

// RunExperiment regenerates one paper exhibit and returns its rendered
// tables. Simulations run through the process-global scheduler: they
// share its bounded worker pool with every other in-flight experiment,
// and completed runs are memoized, so experiments that revisit the same
// (kernel, organization, configuration) combination — most of them do —
// reuse earlier results. Rendered output is deterministic: it does not
// depend on Parallel or on cache state.
func RunExperiment(name string, opt ExperimentOptions) (string, error) {
	rep, err := RunExperimentReport(name, opt)
	return rep.Text, err
}

// ExperimentReport is one experiment's rendered output plus the
// scheduler activity attributable to that experiment alone.
type ExperimentReport struct {
	Name string
	Text string

	// Sched counts the scheduler requests this experiment itself issued —
	// not the process-wide totals, which interleave concurrent
	// experiments. Workers, CacheEntries and Evictions are pool-wide
	// properties and stay zero here; read them from GlobalSchedulerStats.
	Sched SchedulerStats
}

// RunExperimentReport is RunExperiment with per-experiment scheduler
// attribution: how many of this experiment's simulations ran fresh,
// were served from the memo cache, or joined an identical in-flight
// run. The counts are exact even when experiments run concurrently.
func RunExperimentReport(name string, opt ExperimentOptions) (ExperimentReport, error) {
	r, err := experiments.Run(name, experiments.Options{
		Ctx: opt.Ctx, Scale: opt.Scale, Parallel: opt.Parallel, OnProgress: opt.OnProgress,
	})
	if err != nil {
		return ExperimentReport{}, err
	}
	return ExperimentReport{Name: name, Text: r.Render(), Sched: r.Sched}, nil
}

// SchedulerStats is the scheduler's counter set: how many runs were
// requested (Runs), how many actually simulated (Misses), how many were
// served from the memo cache (Hits), the persistent tier (DiskHits) or a
// peer process (PeerHits), joined an identical in-flight run (Joins) or
// were canceled, plus the cumulative queue, simulation and lease wait.
type SchedulerStats = sched.Stats

// GlobalSchedulerStats reports the process-global scheduler's cumulative
// counters (all RunExperiment work in this process so far).
func GlobalSchedulerStats() SchedulerStats { return sched.Global().Stats() }
