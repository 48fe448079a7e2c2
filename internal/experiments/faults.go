package experiments

import (
	"errors"
	"fmt"

	"carf/internal/core"
	"carf/internal/harden"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// The fault-injection campaign measures the hardening layer's detection
// coverage: for every fault class, seeded corruptions are injected into
// a running content-aware file and the run is watched for which checker
// (lockstep co-simulation, invariant sweep, watchdog, per-read
// reconstruction check, or the end-of-run result check) reports first,
// and after how many cycles.

// faultKernel is the campaign workload: hashprobe keeps all three value
// populations live (hash values are long, bucket pointers short, probe
// counters simple) and cycles through many Short similarity groups, so
// every fault class — including the reference-bit leak, which needs a
// live-but-unreferenced group — finds targets.
const faultKernel = "hashprobe"

// faultHardenOptions is the checker configuration campaigns run under: a
// tight sweep period so invariant detection latency is meaningful, and a
// watchdog bounding any induced hang.
func faultHardenOptions() harden.Options {
	return harden.Options{
		Lockstep:      true,
		SweepEvery:    64,
		WatchdogAfter: 20000,
	}
}

// faultParams is the campaign register file: the paper configuration
// with a doubled Short file, so groups outside the retirement map's
// working set exist and ref-clear faults have injectable targets.
func faultParams() core.Params {
	p := core.DefaultParams()
	p.NumShort = 16
	return p
}

// RunFaultInjection runs one seeded injection against kernel (at the
// given scale) and classifies the outcome. The returned error reports
// infrastructure failures (unknown kernel, invalid config) — a detected
// fault is a success and lands in Outcome.Err instead. The run goes
// through the global scheduler; the fault descriptor and every checker
// knob are part of the memoization key, so a checked/injected run can
// never be served the result of a clean one (or vice versa).
func RunFaultInjection(kernel string, scale float64, f harden.Fault) (harden.Outcome, error) {
	r, err := workload.Lookup(kernel, scale)
	if err != nil {
		return harden.Outcome{}, err
	}
	return runFaultInjection(Options{Scale: scale}.withDefaults(), r, f)
}

// runFaultInjection runs one seeded injection against r, which is
// built only if the run is not served from a cache.
func runFaultInjection(opt Options, r *workload.Ref, f harden.Fault) (harden.Outcome, error) {
	cfg := pipeline.DefaultConfig()
	cfg.Harden = faultHardenOptions()
	p := faultParams()
	key := sched.KeyOf("fault", r.Name, opt.Scale, p, cfg, f)
	label := runLabel("fault", r.Name, fmt.Sprintf("%v#%d", f.Class, f.Seed))
	return do(opt, key, label, func(report sched.ProgressFunc) (harden.Outcome, error) {
		return injectOnce(opt, r, cfg, p, f, report)
	})
}

// injectOnce is the body of one seeded campaign run.
func injectOnce(opt Options, r *workload.Ref, cfg pipeline.Config, p core.Params, f harden.Fault, report sched.ProgressFunc) (harden.Outcome, error) {
	k, err := r.Build()
	if err != nil {
		return harden.Outcome{}, err
	}
	cpu, err := pipeline.NewChecked(cfg, k.Prog, core.New(p))
	if err != nil {
		return harden.Outcome{}, err
	}
	cpu.ScheduleFault(f)
	st, runErr := cpu.RunContext(opt.Ctx, pipeline.Observe{Frame: frames(report, opt.Scale, k)})
	if err := opt.Ctx.Err(); err != nil {
		// Interrupted: no checker had its say.
		return harden.Outcome{}, fmt.Errorf("fault run %v: %w", f, err)
	}

	outs := cpu.Injections()
	if len(outs) == 0 {
		return harden.Outcome{}, fmt.Errorf("experiments: scheduled fault vanished (%v)", f)
	}
	out := outs[0]
	if runErr != nil {
		out.Err = runErr.Error()
	}

	var div *harden.DivergenceError
	var inv *harden.InvariantError
	var dead *harden.DeadlockError
	switch {
	case errors.As(runErr, &div):
		out.Detected, out.Detector, out.DetectedAt = true, "lockstep", div.Cycle
	case errors.As(runErr, &inv):
		out.Detected, out.Detector, out.DetectedAt = true, "invariant", inv.Cycle
	case errors.As(runErr, &dead):
		out.Detected, out.Detector, out.DetectedAt = true, "watchdog", dead.Cycle
	case runErr != nil:
		// The end-of-run fault log or another structured failure.
		out.Detected, out.Detector = true, "fault-log"
	case st.ValueMismatches > 0:
		out.Detected, out.Detector = true, "readcheck"
	case k.CheckResult(cpu.Machine()) != nil:
		out.Detected, out.Detector = true, "result"
	}
	return out, nil
}

// faultSeeds are the campaign seeds per class; the simulator is
// deterministic, so each (class, seed) pair is exactly reproducible.
var faultSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}

// faultInjectCycle is when the corruption lands: past warm-up, well
// before the smallest campaign run retires.
const faultInjectCycle = 2000

// Faults is the hardening coverage experiment: a seeded campaign over
// every fault class, reporting per-class detection counts by detector
// and mean detection latency.
func Faults(opt Options) (Result, error) {
	classes := harden.FaultClasses()
	type job struct {
		class int
		seed  int
	}
	var jobs []job
	for ci := range classes {
		for si := range faultSeeds {
			jobs = append(jobs, job{ci, si})
		}
	}
	r, err := workload.Lookup(faultKernel, opt.Scale)
	if err != nil {
		return Result{}, err
	}
	outs := make([]harden.Outcome, len(jobs))
	if err := sched.ForEach(len(jobs), func(i int) error {
		var err error
		outs[i], err = runFaultInjection(opt, r, harden.Fault{
			Class: classes[jobs[i].class],
			Cycle: faultInjectCycle,
			Seed:  faultSeeds[jobs[i].seed],
		})
		return err
	}); err != nil {
		return Result{}, err
	}

	t := stats.Table{
		Title:  "Fault-injection detection coverage",
		Header: []string{"class", "runs", "injected", "detected", "lockstep", "invariant", "readcheck", "other", "mean latency"},
	}
	for ci, class := range classes {
		var injected, detected, lockstep, invariant, readcheck, other int
		var latSum, latN float64
		for si := range faultSeeds {
			o := outs[ci*len(faultSeeds)+si]
			if o.Injected {
				injected++
			}
			if !o.Detected {
				continue
			}
			detected++
			switch o.Detector {
			case "lockstep":
				lockstep++
			case "invariant":
				invariant++
			case "readcheck":
				readcheck++
			default:
				other++
			}
			if l := o.Latency(); l > 0 {
				latSum += float64(l)
				latN++
			}
		}
		lat := "-"
		if latN > 0 {
			lat = fmt.Sprintf("%.0f", latSum/latN)
		}
		t.AddRow(class.String(),
			fmt.Sprint(len(faultSeeds)), fmt.Sprint(injected), fmt.Sprint(detected),
			fmt.Sprint(lockstep), fmt.Sprint(invariant), fmt.Sprint(readcheck), fmt.Sprint(other), lat)
	}
	t.AddNote(fmt.Sprintf("kernel %s, scale %.2g, injection at cycle %d, sweep every %d cycles",
		faultKernel, opt.Scale, faultInjectCycle, faultHardenOptions().SweepEvery))
	t.AddNote("detected = any checker reported; latency averaged over detections with a known detection cycle")
	return Result{Name: "faults", Tables: []stats.Table{t}}, nil
}
