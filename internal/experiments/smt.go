package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/vm"
	"carf/internal/workload"
)

// SMTOut is one two-thread simulation's value: per-thread stats plus
// the shared file's live-long occupancy.
type SMTOut struct {
	Stats       [2]pipeline.Stats
	AvgLiveLong float64
}

// runSMT simulates kernels a and b sharing one content-aware file built
// from p under the given thread-priority policy, pooled and memoized
// like every other run (the policy and file parameters key the cache).
func runSMT(ra, rb *workload.Ref, p core.Params, pol pipeline.SMTPolicy, opt Options) (SMTOut, error) {
	cfg := pipeline.DefaultConfig()
	key := runKey("smt", opt, ra.Name+"+"+rb.Name, "carf", cfg, p, pol)
	label := runLabel("smt", ra.Name+"+"+rb.Name, fmt.Sprintf("policy-%v", pol))
	return do(opt, key, label, func(report sched.ProgressFunc) (SMTOut, error) {
		a, err := ra.Build()
		if err != nil {
			return SMTOut{}, err
		}
		b, err := rb.Build()
		if err != nil {
			return SMTOut{}, err
		}
		model := core.New(p)
		smt := pipeline.NewSMT(cfg, [2]*vm.Program{a.Prog, b.Prog}, model)
		smt.SetPolicy(pol)
		sts, err := smt.RunContext(opt.Ctx, pipeline.Observe{Frame: frames(report, opt.Scale, a, b)})
		if err != nil {
			return SMTOut{}, err
		}
		for i, k := range []workload.Kernel{a, b} {
			if err := k.CheckResult(smt.Thread(i).Machine()); err != nil {
				return SMTOut{}, fmt.Errorf("smt (policy %s): %w", pol, err)
			}
			if n := sts[i].ValueMismatches; n != 0 {
				return SMTOut{}, fmt.Errorf("smt %s (policy %s): %d register reconstruction mismatches", k.Name, pol, n)
			}
		}
		return SMTOut{Stats: sts, AvgLiveLong: model.Stats().AvgLiveLong()}, nil
	})
}

// smtPolicyStudy compares the §6 thread-priority policies on a
// long-value-heavy pair with a deliberately small shared Long file
// (pressure makes the policy matter).
func smtPolicyStudy(opt Options) (stats.Table, error) {
	tb := stats.Table{
		Title:  "SMT thread-priority policy under Long-file pressure (crc64+hashprobe, K=24)",
		Header: []string{"policy", "combined IPC", "recovery stalls", "long-stall cycles"},
	}
	ka, err := workload.Lookup("crc64", opt.Scale)
	if err != nil {
		return stats.Table{}, err
	}
	kb, err := workload.Lookup("hashprobe", opt.Scale)
	if err != nil {
		return stats.Table{}, err
	}
	for _, pol := range []pipeline.SMTPolicy{pipeline.PolicyRoundRobin, pipeline.PolicyLongAware} {
		p := core.DefaultParams()
		p.NumLong = 24
		o, err := runSMT(ka, kb, p, pol, opt)
		if err != nil {
			return stats.Table{}, err
		}
		tb.AddRow(pol.String(),
			stats.F3(o.Stats[0].IPC()+o.Stats[1].IPC()),
			fmt.Sprintf("%d", o.Stats[0].RecoveryStallCycles+o.Stats[1].RecoveryStallCycles),
			fmt.Sprintf("%d", o.Stats[0].LongStallCycles+o.Stats[1].LongStallCycles))
	}
	tb.AddNote("the long-aware policy throttles the thread hoarding Long entries when the shared file runs low")
	return tb, nil
}

// smtPair runs two kernels on the two-thread machine sharing one
// content-aware file and returns a report row: combined throughput, its
// ratio to the sum of the solo runs (the sharing cost), the shared
// file's live-long occupancy, and recovery pressure.
func smtPair(a, b string, opt Options) ([]string, error) {
	ka, err := workload.Lookup(a, opt.Scale)
	if err != nil {
		return nil, err
	}
	kb, err := workload.Lookup(b, opt.Scale)
	if err != nil {
		return nil, err
	}

	soloA, err := runOne(ka, carfSpec(core.DefaultParams()), opt)
	if err != nil {
		return nil, err
	}
	soloB, err := runOne(kb, carfSpec(core.DefaultParams()), opt)
	if err != nil {
		return nil, err
	}

	o, err := runSMT(ka, kb, core.DefaultParams(), pipeline.PolicyRoundRobin, opt)
	if err != nil {
		return nil, err
	}

	// Per-thread IPC is measured over each thread's own active cycles,
	// so a short thread draining early does not count as idle loss.
	combined := o.Stats[0].IPC() + o.Stats[1].IPC()
	soloSum := soloA.Pstats.IPC() + soloB.Pstats.IPC()
	return []string{
		a + "+" + b,
		stats.F3(combined),
		stats.Pct(combined / soloSum),
		stats.F3(o.AvgLiveLong),
		fmt.Sprintf("%d", o.Stats[0].RecoveryStallCycles+o.Stats[1].RecoveryStallCycles),
	}, nil
}
