package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/metrics"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/stats"
	"carf/internal/workload"
)

// phasesInterval is the sampling period for the phase-variance study:
// fine enough to resolve kernel phases at the experiments' default
// 0.25 scale (tens of thousands of cycles per kernel), coarse enough
// that each interval spans many instructions.
const phasesInterval = 1000

// PhasesOut is one kernel's phase-variance value: summaries of its
// interval IPC and Short/Long occupancy series, and the run's IPC.
type PhasesOut struct {
	IPC, Short, Long metrics.Summary
	RunIPC           float64
}

// Phases runs the integer suite on the content-aware organization with
// its metric series observed every phasesInterval cycles and reports
// phase variance — the spread of interval IPC and of Short/Long
// sub-file occupancy over time — instead of the end-of-run means the
// paper's exhibits use. A kernel whose interval IPC swings widely has
// distinct phases that a mean conceals; high Short-occupancy variance
// marks phases where the d-bit similarity test changes its hit rate.
func Phases(opt Options) (Result, error) {
	kernels := workload.IntSuite(opt.Scale)
	// Metric-sampled runs are memoized like plain ones; the sampling
	// interval is part of the key.
	spec := carfSpec(core.DefaultParams())
	cfg := pipeline.DefaultConfig()
	outs := make([]PhasesOut, len(kernels))
	err := sched.ForEach(len(kernels), func(i int) error {
		r := kernels[i]
		key := runKey("phases", opt, r.Name, spec.id, cfg, phasesInterval)
		var err error
		outs[i], err = do(opt, key, runLabel("phases", r.Name, spec.id), func(report sched.ProgressFunc) (PhasesOut, error) {
			k, err := r.Build()
			if err != nil {
				return PhasesOut{}, err
			}
			cpu := pipeline.New(cfg, k.Prog, spec.new())
			var series metrics.TimeSeries
			st, err := cpu.RunContext(opt.Ctx, pipeline.Observe{Every: phasesInterval, Series: &series, Frame: frames(report, opt.Scale, k)})
			if err != nil {
				return PhasesOut{}, fmt.Errorf("%s: %w", k.Name, err)
			}
			if err := k.CheckResult(cpu.Machine()); err != nil {
				return PhasesOut{}, err
			}
			return PhasesOut{
				IPC:    metrics.Summarize(series.Column("pipeline.ipc")),
				Short:  metrics.Summarize(series.Column("core.short_occupancy")),
				Long:   metrics.Summarize(series.Column("core.long_occupancy")),
				RunIPC: st.IPC(),
			}, nil
		})
		return err
	})
	if err != nil {
		return Result{}, err
	}

	ipcT := stats.Table{
		Title: fmt.Sprintf("Interval IPC phase variance (content-aware, %d-cycle intervals)", phasesInterval),
		Header: []string{"kernel", "samples", "mean IPC", "stddev", "min", "max",
			"cv", "run IPC"},
	}
	occT := stats.Table{
		Title:  "Sub-file occupancy over time (content-aware)",
		Header: []string{"kernel", "short mean", "short max", "long mean", "long stddev", "long max"},
	}
	for i, o := range outs {
		cv := 0.0
		if o.IPC.Mean != 0 {
			cv = o.IPC.Stddev / o.IPC.Mean
		}
		ipcT.AddRow(kernels[i].Name,
			fmt.Sprintf("%d", o.IPC.N),
			stats.F3(o.IPC.Mean), stats.F3(o.IPC.Stddev),
			stats.F3(o.IPC.Min), stats.F3(o.IPC.Max),
			stats.Pct(cv), stats.F3(o.RunIPC))
		occT.AddRow(kernels[i].Name,
			stats.F3(o.Short.Mean), fmt.Sprintf("%.0f", o.Short.Max),
			stats.F3(o.Long.Mean), stats.F3(o.Long.Stddev), fmt.Sprintf("%.0f", o.Long.Max))
	}
	p := core.DefaultParams()
	occT.AddNote("structural bounds: %d short, %d long registers", p.NumShort, p.NumLong)
	ipcT.AddNote("cv = stddev/mean; a high cv marks kernels with distinct execution phases")
	return Result{Name: "phases", Tables: []stats.Table{ipcT, occT}}, nil
}
