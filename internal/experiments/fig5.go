package experiments

import (
	"fmt"

	"carf/internal/stats"
	"carf/internal/workload"
)

// Fig5 reproduces Figure 5: the average IPC of the content-aware
// organization relative to the unlimited-resource file, as a function of
// d+n, for the integer and FP suites, with the baseline as reference
// lines. Configuration: 112 simple, 8 short, 48 long (§4).
func Fig5(opt Options) (Result, error) {
	ints := workload.IntSuite(opt.Scale)
	fps := workload.FPSuite(opt.Scale)

	unlInt, err := runSuite(ints, unlimitedSpec(), opt)
	if err != nil {
		return Result{}, err
	}
	unlFP, err := runSuite(fps, unlimitedSpec(), opt)
	if err != nil {
		return Result{}, err
	}
	baseInt, err := runSuite(ints, baselineSpec(), opt)
	if err != nil {
		return Result{}, err
	}
	baseFP, err := runSuite(fps, baselineSpec(), opt)
	if err != nil {
		return Result{}, err
	}

	tb := stats.Table{
		Title:  "Figure 5: Average relative IPC (vs unlimited) as a function of d+n",
		Header: []string{"d+n", "INT", "FP"},
	}
	carfInt, err := runParams(ints, dnParams(), opt)
	if err != nil {
		return Result{}, err
	}
	carfFP, err := runParams(fps, dnParams(), opt)
	if err != nil {
		return Result{}, err
	}
	for i, dn := range dnSweep {
		tb.AddRow(fmt.Sprintf("%d", dn),
			stats.Pct(meanRelIPC(carfInt[i], unlInt)),
			stats.Pct(meanRelIPC(carfFP[i], unlFP)))
	}
	tb.AddRow("baseline", stats.Pct(meanRelIPC(baseInt, unlInt)), stats.Pct(meanRelIPC(baseFP, unlFP)))
	tb.AddNote("paper: INT reaches a near-optimum at d+n=20 (~98.3%%); FP stays ~99.7%%; baseline ~99%%")
	return Result{Name: "fig5", Tables: []stats.Table{tb}}, nil
}
