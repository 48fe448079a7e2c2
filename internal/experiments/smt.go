package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/stats"
	"carf/internal/vm"
	"carf/internal/workload"
)

// smtOut is one two-thread simulation's harvest: per-thread stats plus
// the shared file's occupancy, captured inside the scheduler job so the
// cached value is a plain immutable snapshot.
type smtOut struct {
	sts         [2]pipeline.Stats
	avgLiveLong float64
}

// runSMT simulates kernels a and b sharing one content-aware file built
// from p under the given thread-priority policy, pooled and memoized
// like every other run (the policy and file parameters key the cache).
func runSMT(ra, rb *workload.Ref, p core.Params, pol pipeline.SMTPolicy, opt Options) (smtOut, error) {
	cfg := pipeline.DefaultConfig()
	key := runKey("smt", opt, ra.Name+"+"+rb.Name, "carf", cfg, p, pol)
	label := runLabel("smt", ra.Name+"+"+rb.Name, fmt.Sprintf("policy-%v", pol))
	v, prov, err := opt.Sched.DoCtx(opt.Ctx, key, label, true, func() (any, error) {
		a, err := ra.Build()
		if err != nil {
			return nil, err
		}
		b, err := rb.Build()
		if err != nil {
			return nil, err
		}
		model := core.New(p)
		smt := pipeline.NewSMT(cfg, [2]*vm.Program{a.Prog, b.Prog}, model)
		smt.SetPolicy(pol)
		sts, err := smt.Run()
		if err != nil {
			return nil, err
		}
		for i, k := range []workload.Kernel{a, b} {
			if got := smt.Thread(i).Machine().X[workload.ResultReg]; got != k.Expected {
				return nil, fmt.Errorf("smt %s (policy %s): result %#x, want %#x", k.Name, pol, got, k.Expected)
			}
			if n := sts[i].ValueMismatches; n != 0 {
				return nil, fmt.Errorf("smt %s (policy %s): %d register reconstruction mismatches", k.Name, pol, n)
			}
		}
		return smtOut{sts: sts, avgLiveLong: model.Stats().AvgLiveLong()}, nil
	})
	opt.Tally.Record(prov, err)
	if err != nil {
		return smtOut{}, err
	}
	return v.(smtOut), nil
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
			stats.F3(o.sts[0].IPC()+o.sts[1].IPC()),
			fmt.Sprintf("%d", o.sts[0].RecoveryStallCycles+o.sts[1].RecoveryStallCycles),
			fmt.Sprintf("%d", o.sts[0].LongStallCycles+o.sts[1].LongStallCycles))
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
	combined := o.sts[0].IPC() + o.sts[1].IPC()
	soloSum := soloA.Pstats.IPC() + soloB.Pstats.IPC()
	return []string{
		a + "+" + b,
		stats.F3(combined),
		stats.Pct(combined / soloSum),
		stats.F3(o.avgLiveLong),
		fmt.Sprintf("%d", o.sts[0].RecoveryStallCycles+o.sts[1].RecoveryStallCycles),
	}, nil
}
