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

// Phases runs the integer suite on the content-aware organization with
// its metric series observed every phasesInterval cycles and reports
// phase variance — the spread of interval IPC and of Short/Long
// sub-file occupancy over time — instead of the end-of-run means the
// paper's exhibits use. A kernel whose interval IPC swings widely has
// distinct phases that a mean conceals; high Short-occupancy variance
// marks phases where the d-bit similarity test changes its hit rate.
func Phases(opt Options) (Result, error) {
	kernels := workload.IntSuite(opt.Scale)
	type out struct {
		kernel string
		series metrics.TimeSeries
		ipc    float64
	}
	// Metric-sampled runs are memoized like plain ones; the sampling
	// interval is part of the key, and the cached series is read-only
	// (Column and Summarize never mutate it).
	spec := carfSpec(core.DefaultParams())
	cfg := pipeline.DefaultConfig()
	outs := make([]out, len(kernels))
	err := sched.ForEach(len(kernels), func(i int) error {
		r := kernels[i]
		key := runKey("phases", opt, r.Name, spec.id, cfg, phasesInterval)
		v, prov, err := opt.Sched.DoCtx(opt.Ctx, key, runLabel("phases", r.Name, spec.id), true, func() (any, error) {
			k, err := r.Build()
			if err != nil {
				return nil, err
			}
			cpu := pipeline.New(cfg, k.Prog, spec.new())
			var series metrics.TimeSeries
			st, err := cpu.RunContext(opt.Ctx, pipeline.Observe{Every: phasesInterval, Series: &series})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name, err)
			}
			return out{kernel: k.Name, series: series, ipc: st.IPC()}, nil
		})
		opt.Tally.Record(prov, err)
		if err != nil {
			return err
		}
		outs[i] = v.(out)
		return nil
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
	for _, o := range outs {
		ipc := metrics.Summarize(o.series.Column("pipeline.ipc"))
		cv := 0.0
		if ipc.Mean != 0 {
			cv = ipc.Stddev / ipc.Mean
		}
		ipcT.AddRow(o.kernel,
			fmt.Sprintf("%d", ipc.N),
			stats.F3(ipc.Mean), stats.F3(ipc.Stddev),
			stats.F3(ipc.Min), stats.F3(ipc.Max),
			stats.Pct(cv), stats.F3(o.ipc))

		short := metrics.Summarize(o.series.Column("core.short_occupancy"))
		long := metrics.Summarize(o.series.Column("core.long_occupancy"))
		occT.AddRow(o.kernel,
			stats.F3(short.Mean), fmt.Sprintf("%.0f", short.Max),
			stats.F3(long.Mean), stats.F3(long.Stddev), fmt.Sprintf("%.0f", long.Max))
	}
	p := core.DefaultParams()
	occT.AddNote("structural bounds: %d short, %d long registers", p.NumShort, p.NumLong)
	ipcT.AddNote("cv = stddev/mean; a high cv marks kernels with distinct execution phases")
	return Result{Name: "phases", Tables: []stats.Table{ipcT, occT}}, nil
}
