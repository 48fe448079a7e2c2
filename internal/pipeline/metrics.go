package pipeline

import (
	"carf/internal/metrics"
)

// metricsRegistrar is implemented by register file models that export
// their own instrument series (the content-aware file, the conventional
// files).
type metricsRegistrar interface {
	RegisterMetrics(reg *metrics.Registry)
}

// widthBounds builds histogram bucket bounds 0..n for a per-cycle
// bandwidth histogram of a width-n stage.
func widthBounds(n int) []float64 {
	out := make([]float64, n+1)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

// registerMetrics registers this core's observable series on reg —
// pipeline throughput, stage-width histograms, queue occupancies, stall
// and control-flow counters, plus the register file model's, cache
// hierarchy's, and predictors' own series — for Observe.Series, which
// RunContext samples once per frame.
func (c *CPU) registerMetrics(reg *metrics.Registry) {
	st := &c.stats
	u := func(p *uint64) func() float64 {
		return func() float64 { return float64(*p) }
	}

	reg.GaugeFunc("pipeline.cycles", u(&st.Cycles))
	reg.GaugeFunc("pipeline.instructions", u(&st.Instructions))
	reg.RatioRate("pipeline.ipc", u(&st.Instructions), u(&st.Cycles))
	reg.GaugeFunc("pipeline.ipc_cum", func() float64 { return st.IPC() })

	reg.GaugeFunc("pipeline.branches", u(&st.Branches))
	reg.GaugeFunc("pipeline.mispredicts", u(&st.Mispredicts))
	reg.RatioRate("pipeline.mispredict_rate", u(&st.Mispredicts), u(&st.Branches))
	reg.GaugeFunc("pipeline.fetch_bubbles", u(&st.FetchBubbles))

	reg.GaugeFunc("pipeline.int_operands", u(&st.IntOperands))
	reg.GaugeFunc("pipeline.bypassed_operands", u(&st.BypassedOperands))
	reg.RatioRate("pipeline.bypass_rate", u(&st.BypassedOperands), u(&st.IntOperands))

	reg.GaugeFunc("pipeline.rob_occupancy", func() float64 { return float64(c.rob.Len()) })
	reg.GaugeFunc("pipeline.intiq_occupancy", func() float64 { return float64(len(c.intIQ)) })
	reg.GaugeFunc("pipeline.fpiq_occupancy", func() float64 { return float64(len(c.fpIQ)) })
	reg.GaugeFunc("pipeline.lsq_occupancy", func() float64 { return float64(c.lsq.Len()) })

	reg.GaugeFunc("pipeline.rename_stall_cycles", u(&st.RenameStallCycles))
	reg.GaugeFunc("pipeline.long_stall_cycles", u(&st.LongStallCycles))
	reg.GaugeFunc("pipeline.recovery_stall_cycles", u(&st.RecoveryStallCycles))
	reg.GaugeFunc("pipeline.port_stall_cycles", u(&st.PortStallCycles))
	reg.GaugeFunc("pipeline.forced_spills", u(&st.ForcedSpills))

	if c.cfg.WrongPath {
		reg.GaugeFunc("pipeline.wrongpath_fetched", u(&st.WrongPathFetched))
		reg.GaugeFunc("pipeline.wrongpath_squashed", u(&st.WrongPathSquashed))
		reg.GaugeFunc("pipeline.squashes", u(&st.Squashes))
	}

	c.mFetchWidth = reg.Histogram("pipeline.fetch_width", widthBounds(c.cfg.FetchWidth))
	c.mIssueWidth = reg.Histogram("pipeline.issue_width", widthBounds(c.cfg.IssueWidth))
	c.mCommitWidth = reg.Histogram("pipeline.commit_width", widthBounds(c.cfg.CommitWidth))

	if m, ok := c.Model().(metricsRegistrar); ok {
		m.RegisterMetrics(reg)
	}
	c.hier.RegisterMetrics(reg)
	c.gshare.RegisterMetrics(reg)
	c.btb.RegisterMetrics(reg)

	c.mreg = reg
}
