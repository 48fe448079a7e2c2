package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/pipeline"
	"carf/internal/stats"
	"carf/internal/workload"
)

// WrongPath quantifies the modeling delta the default configuration
// documents in EXPERIMENTS.md: with speculative wrong-path execution
// enabled, mispredicted conditional branches fetch, rename, issue, and
// write back phantom instructions until resolution, adding register
// file traffic (and energy) that the fetch-stall model omits. The
// experiment reports both modes for the baseline and content-aware
// organizations over the integer suite.
func WrongPath(opt Options) (Result, error) {
	ints := workload.IntSuite(opt.Scale)

	type row struct {
		label string
		spec  modelSpec
	}
	rows := []row{
		{"baseline", baselineSpec()},
		{"content-aware", carfSpec(core.DefaultParams())},
	}

	tech := energy.DefaultTech()
	tb := stats.Table{
		Title: "Wrong-path execution ablation (INT suite)",
		Header: []string{"organization", "mode", "IPC", "RF energy (rel stall mode)",
			"bypassed ops", "phantoms/mispredict"},
	}
	for _, r := range rows {
		stallCfg := pipeline.DefaultConfig()
		specCfg := pipeline.DefaultConfig()
		specCfg.WrongPath = true

		stalls, err := runSuiteCfg(ints, []modelSpec{r.spec}, stallCfg, opt)
		if err != nil {
			return Result{}, err
		}
		specs, err := runSuiteCfg(ints, []modelSpec{r.spec}, specCfg, opt)
		if err != nil {
			return Result{}, err
		}
		stall, spec := stalls[0], specs[0]

		stallEnergy := suiteEnergy(tech, stall)
		specEnergy := suiteEnergy(tech, spec)
		ipc := func(outs []runOut) float64 {
			var vals []float64
			for _, o := range outs {
				vals = append(vals, o.Pstats.IPC())
			}
			return stats.Mean(vals)
		}
		var phantoms, mispredicts uint64
		for _, o := range spec {
			phantoms += o.Pstats.WrongPathFetched
			mispredicts += o.Pstats.Mispredicts
		}
		perMp := 0.0
		if mispredicts > 0 {
			perMp = float64(phantoms) / float64(mispredicts)
		}

		tb.AddRow(r.label, "fetch stall", stats.F3(ipc(stall)), stats.Pct(1), stats.Pct(suiteBypass(stall)), "-")
		tb.AddRow(r.label, "wrong-path exec", stats.F3(ipc(spec)),
			stats.Pct(specEnergy/stallEnergy), stats.Pct(suiteBypass(spec)), fmt.Sprintf("%.1f", perMp))
	}
	tb.AddNote("phantom traffic raises register file energy in both organizations; the relative")
	tb.AddNote("baseline-vs-content-aware comparison (Fig. 7) is insensitive to the recovery model")
	return Result{Name: "wrongpath", Tables: []stats.Table{tb}}, nil
}
