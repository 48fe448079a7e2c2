package experiments

import (
	"carf/internal/core"
	"carf/internal/pipeline"
	"carf/internal/stats"
	"carf/internal/workload"
)

// Cluster evaluates §6's first direction: a clustered machine whose
// clusters are defined by value type. Each cluster gets half the integer
// units and inter-cluster operands pay one forwarding cycle; steering by
// result value type is compared against round-robin steering (which
// ignores types) and the unified machine. The paper's preliminary claim
// is "little inter-cluster communication" under type steering.
func Cluster(opt Options) (Result, error) {
	ints := workload.IntSuite(opt.Scale)
	spec := carfSpec(core.DefaultParams())

	unifiedCfg := pipeline.DefaultConfig()
	typeCfg := pipeline.DefaultConfig()
	typeCfg.Clusters = 2
	rrCfg := pipeline.DefaultConfig()
	rrCfg.Clusters = 2
	rrCfg.ClusterSteerRoundRobin = true

	unified, err := runSuiteCfg(ints, []modelSpec{spec}, unifiedCfg, opt)
	if err != nil {
		return Result{}, err
	}

	tb := stats.Table{
		Title:  "Value-type clustering (§6): two half-width clusters, 1-cycle crossing",
		Header: []string{"machine", "IPC vs unified", "cross-cluster operands"},
	}
	tb.AddRow("unified (8 int units)", stats.Pct(1), "-")
	for _, row := range []struct {
		label string
		cfg   pipeline.Config
	}{
		{"clustered, type-steered", typeCfg},
		{"clustered, round-robin", rrCfg},
	} {
		cfgOuts, err := runSuiteCfg(ints, []modelSpec{spec}, row.cfg, opt)
		if err != nil {
			return Result{}, err
		}
		outs := cfgOuts[0]
		var ops, crossings uint64
		for _, o := range outs {
			ops += o.Pstats.IntOperands
			crossings += o.Pstats.CrossClusterOps
		}
		crossRate := 0.0
		if ops > 0 {
			crossRate = float64(crossings) / float64(ops)
		}
		tb.AddRow(row.label, stats.Pct(meanRelIPC(outs, unified[0])), stats.Pct(crossRate))
	}
	tb.AddNote("paper (preliminary): type-based clusters see little inter-cluster communication;")
	tb.AddNote("round-robin steering is the control showing the traffic a type-blind split pays")
	return Result{Name: "cluster", Tables: []stats.Table{tb}}, nil
}
