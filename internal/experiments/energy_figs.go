package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/regfile"
	"carf/internal/stats"
	"carf/internal/workload"
)

// carfFileSpecs returns the three sub-file specifications for a d+n
// point (static characterization, no simulation needed).
func carfFileSpecs(dn int) []regfile.FileSpec {
	p := core.DefaultParams()
	p.DPlusN = dn
	f := core.New(p)
	var specs []regfile.FileSpec
	for _, fa := range f.Files() {
		specs = append(specs, fa.Spec)
	}
	return specs
}

// Fig7 reproduces Figure 7: total register file energy of the
// content-aware organization relative to the unlimited file running the
// same instruction stream, as a function of d+n, with the baseline as a
// reference line.
func Fig7(opt Options) (Result, error) {
	tech := energy.DefaultTech()
	kernels := workload.AllKernels(opt.Scale)

	unl, err := runSuite(kernels, unlimitedSpec(), opt)
	if err != nil {
		return Result{}, err
	}
	base, err := runSuite(kernels, baselineSpec(), opt)
	if err != nil {
		return Result{}, err
	}
	unlEnergy := suiteEnergy(tech, unl)
	baseEnergy := suiteEnergy(tech, base)

	tb := stats.Table{
		Title:  "Figure 7: Register file energy relative to the unlimited organization",
		Header: []string{"d+n", "content-aware", "baseline"},
	}
	dnOuts, err := runParams(kernels, dnParams(), opt)
	if err != nil {
		return Result{}, err
	}
	for i, dn := range dnSweep {
		tb.AddRow(fmt.Sprintf("%d", dn),
			stats.Pct(suiteEnergy(tech, dnOuts[i])/unlEnergy),
			stats.Pct(baseEnergy/unlEnergy))
	}
	tb.AddNote("paper: baseline ~48.8%% of unlimited; content-aware roughly halves that again (~23-25%% at d+n=20)")
	return Result{Name: "fig7", Tables: []stats.Table{tb}}, nil
}

// suiteEnergy sums the modeled register file energy over a suite.
func suiteEnergy(tech energy.Tech, outs []runOut) float64 {
	var total float64
	for _, o := range outs {
		total += tech.Organization(o.Files).TotalEnergy
	}
	return total
}

// Fig8 reproduces Figure 8: total register file area relative to the
// unlimited organization, per d+n, with the baseline reference.
func Fig8(opt Options) (Result, error) {
	tech := energy.DefaultTech()
	unl := tech.UnlimitedReference()
	base := tech.BaselineReference()
	tb := stats.Table{
		Title:  "Figure 8: Register file area relative to the unlimited organization",
		Header: []string{"d+n", "total", "baseline"},
	}
	for _, dn := range dnSweep {
		var area float64
		for _, spec := range carfFileSpecs(dn) {
			area += tech.Estimate(spec).Area
		}
		tb.AddRow(fmt.Sprintf("%d", dn),
			stats.Pct(area/unl.Area), stats.Pct(base.Area/unl.Area))
	}
	tb.AddNote("paper: the content-aware file is ~82%% of the baseline file's area")
	return Result{Name: "fig8", Tables: []stats.Table{tb}}, nil
}

// Fig9 reproduces Figure 9: access time of each sub-file relative to the
// unlimited organization, per d+n, with the baseline reference.
func Fig9(opt Options) (Result, error) {
	tech := energy.DefaultTech()
	unl := tech.UnlimitedReference()
	base := tech.BaselineReference()
	tb := stats.Table{
		Title:  "Figure 9: Register file access time relative to the unlimited organization",
		Header: []string{"d+n", "simple", "short", "long", "baseline"},
	}
	for _, dn := range dnSweep {
		row := []string{fmt.Sprintf("%d", dn)}
		byName := map[string]float64{}
		for _, spec := range carfFileSpecs(dn) {
			byName[spec.Name] = tech.Estimate(spec).AccessTime / unl.AccessTime
		}
		row = append(row, stats.Pct(byName["simple"]), stats.Pct(byName["short"]),
			stats.Pct(byName["long"]), stats.Pct(base.AccessTime/unl.AccessTime))
		tb.Rows = append(tb.Rows, row)
	}
	tb.AddNote("paper: every sub-file is faster than the baseline access; up to ~15%% critical-path reduction")
	return Result{Name: "fig9", Tables: []stats.Table{tb}}, nil
}

// Table3 reproduces Table 3: per-access energy of each sub-file per
// d+n, normalized to the unlimited file, with the constant baseline.
func Table3(opt Options) (Result, error) {
	tech := energy.DefaultTech()
	unl := tech.UnlimitedReference().PerAccess
	base := tech.BaselineReference().PerAccess
	tb := stats.Table{
		Title:  "Table 3: Single-access energy per register file, normalized to unlimited",
		Header: []string{"d+n", "simple", "short", "long", "baseline"},
	}
	for _, dn := range dnSweep {
		byName := map[string]float64{}
		for _, spec := range carfFileSpecs(dn) {
			byName[spec.Name] = tech.Estimate(spec).PerAccess / unl
		}
		tb.AddRow(fmt.Sprintf("%d", dn),
			stats.Pct(byName["simple"]), stats.Pct(byName["short"]),
			stats.Pct(byName["long"]), stats.Pct(base/unl))
	}
	tb.AddNote("paper (d+n=20): simple ~9-10%%, short 2.9%%, long 16.9%%, baseline 48.8%%")
	return Result{Name: "table3", Tables: []stats.Table{tb}}, nil
}
