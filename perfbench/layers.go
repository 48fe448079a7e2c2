package main

import (
	"time"

	"carf/internal/experiments"
	"carf/internal/workload"
)

// runKinds are the run families the experiments submit to the scheduler,
// named by the first element of a run label ("sim/qsort/baseline").
var runKinds = []string{"sim", "oracle", "memloc", "phases", "cpistack", "smt", "fault"}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetrics lists every per-layer metric a traced run prints, in
// print order. README.md maps each to the kind of pass it is measured on
// and to the end-to-end metric and workload it should move.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"workload.build_ms", "ms"},
		{"vm.ns_per_inst", "ns"},
		{"pipeline.new_us", "us"},
		{"pipeline.self_ns_per_cycle", "ns"},
		{"pipeline.cycles", "count"},
		{"pipeline.insts", "count"},
		{"core.calls_per_inst", "ratio"},
		{"core.self_share", "ratio"},
		{"regfile.self_share", "ratio"},
		{"core.classify_ns", "ns"},
		{"core.recovery_stall_cycles", "count"},
		{"carf_host_overhead", "ratio"},
		{"cache.ns_per_access", "ns"},
		{"cache.l1d_miss_rate", "ratio"},
		{"cache.l2_miss_rate", "ratio"},
		{"predictor.ns_per_branch", "ns"},
		{"predictor.mispredict_rate", "ratio"},
		{"sched.requests", "count"},
		{"sched.misses", "count"},
		{"sched.hits", "count"},
		{"sched.joins", "count"},
		{"sched.disk_hits", "count"},
		{"sched.dedup", "ratio"},
		{"sched.queue_wait_ms_p50", "ms"},
		{"sched.queue_wait_ms_p90", "ms"},
		{"sched.sim_ms_p50", "ms"},
		{"sched.sim_ms_p90", "ms"},
		{"sched.pool_busy", "ratio"},
	}
	for _, k := range runKinds {
		ms = append(ms, layerMetric{"sched.sim_s." + k, "s"})
	}
	ms = append(ms, []layerMetric{
		{"sched.hit_us_p50", "us"},
		{"sched.hit_us_p90", "us"},
		{"sched.keyof_us", "us"},
		{"store.put_ms_p50", "ms"},
		{"store.put_ms_p90", "ms"},
		{"store.puts", "count"},
		{"store.put_kb", "KiB"},
		{"store.lease_ms_p50", "ms"},
		{"store.leases", "count"},
		{"store.open_ms", "ms"},
		{"store.load_us_p50", "us"},
		{"store.load_us_p90", "us"},
		{"store.disk_hits", "count"},
		{"store.load_kb", "KiB"},
		{"store.quarantined", "count"},
	}...)
	for _, id := range experiments.Names() {
		ms = append(ms, layerMetric{"exp." + id + "_s", "s"})
	}
	return append(ms, []layerMetric{
		{"experiments.render_ms", "ms"},
		{"gc.count", "count"},
		{"gc.pause_ms", "ms"},
		{"trace.overhead", "ratio"},
	}...)
}

// layerInputs is everything a traced run's per-layer metrics come from.
// Each metric is defined on one kind of traced pass: a suite pass, a
// cold study pass or a warm study pass. A workload's own traced passes
// supply their kind, and complete adds one pass of each other kind, so
// every workload prints every metric as a measurement.
type layerInputs struct {
	// From the workload's own timed window.
	passes   int
	gc       gcStats
	overhead float64 // untraced over traced throughput

	kernels []workload.Kernel // at suiteScale, for the replays
	suite   *suiteAcc
	cold    []*passResult
	warm    []*passResult
}

// complete runs the kinds of pass in is missing: two suite passes (the
// untraced one gives carf_host_overhead), a cold study pass, and a warm
// pass over the last cold pass's store, checked against that pass's
// rendering.
func (r *run) complete(in *layerInputs) error {
	if in.suite == nil {
		ks, err := buildKernels(nil, "", suiteScale)
		if err != nil {
			return err
		}
		in.kernels, in.suite = ks, &suiteAcc{}
		for i := 0; i < 2; i++ {
			if _, err := r.suiteStep(ks, i, in.suite); err != nil {
				return err
			}
		}
	}
	if len(in.cold) == 0 {
		p, err := r.coldPass(r.spans, "layer-cold")
		if err != nil {
			return err
		}
		r.check(p.check(expected.Cold))
		in.cold = append(in.cold, p)
	}
	if len(in.warm) == 0 {
		cold := in.cold[len(in.cold)-1]
		p, err := r.warmPass(coldScale, cold.dir, r.spans, "layer-warm")
		if err != nil {
			return err
		}
		r.check(p.check(cold.digests))
		in.warm = append(in.warm, p)
	}
	return nil
}

// reportLayers completes in and records every per-layer metric.
func (r *run) reportLayers(in *layerInputs) error {
	if err := r.complete(in); err != nil {
		return err
	}
	l := r.replayProbes(in.kernels, suiteScale)
	l["trace.overhead"] = in.overhead
	l["gc.count"] = float64(in.gc.cycles) / float64(in.passes)
	l["gc.pause_ms"] = float64(in.gc.pause.Nanoseconds()) / 1e6 / float64(in.passes)
	var buildMs []float64
	for _, s := range r.spans.named("workload.ByName", nil) {
		buildMs = append(buildMs, float64(s.dur().Nanoseconds())/1e6)
	}
	l["workload.build_ms"] = quantile(buildMs, 0.5)
	suiteLayers(l, in.suite, r.spans)
	coldLayers(l, in.cold)
	warmLayers(l, in.warm)
	l["store.quarantined"] = perPass(append(in.cold, in.warm...), func(p *passResult) float64 { return float64(p.store.Quarantined) })
	for _, m := range layerMetrics() {
		r.metric(m.name, m.unit, l[m.name])
	}
	return nil
}

// gcStats is the Go runtime's cumulative GC cycle count and pause time.
type gcStats struct {
	cycles uint32
	pause  time.Duration
}

func (a gcStats) sub(b gcStats) gcStats { return gcStats{a.cycles - b.cycles, a.pause - b.pause} }

// throughput is instructions per second.
func throughput(insts uint64, wall time.Duration) float64 { return float64(insts) / wall.Seconds() }
