package experiments

import (
	"carf/internal/core"
	"carf/internal/regfile"
	"carf/internal/stats"
	"carf/internal/workload"
)

// Table2 reproduces Table 2: the percentage of source operands served by
// the bypass network (no register file access) for the baseline and the
// content-aware organizations, per suite. The content-aware pipeline has
// one extra bypass level, so its rate is higher.
func Table2(opt Options) (Result, error) {
	tb := stats.Table{
		Title:  "Table 2: Percentage of bypassed operands",
		Header: []string{"suite", "baseline", "content-aware"},
	}
	for _, suite := range []struct {
		label   string
		kernels []*workload.Ref
	}{
		{"SPEC INT-like", workload.IntSuite(opt.Scale)},
		{"SPEC FP-like", workload.FPSuite(opt.Scale)},
	} {
		base, err := runSuite(suite.kernels, baselineSpec(), opt)
		if err != nil {
			return Result{}, err
		}
		carf, err := runSuite(suite.kernels, carfSpec(core.DefaultParams()), opt)
		if err != nil {
			return Result{}, err
		}
		tb.AddRow(suite.label, stats.Pct(suiteBypass(base)), stats.Pct(suiteBypass(carf)))
	}
	tb.AddNote("paper: baseline 38.1%%/21.1%%, content-aware 47.9%%/28.4%% (INT/FP)")
	return Result{Name: "table2", Tables: []stats.Table{tb}}, nil
}

func suiteBypass(outs []runOut) float64 {
	var ops, byp uint64
	for _, o := range outs {
		ops += o.Pstats.IntOperands
		byp += o.Pstats.BypassedOperands
	}
	if ops == 0 {
		return 0
	}
	return float64(byp) / float64(ops)
}

// Table4 reproduces Table 4: the distribution of integer source-operand
// type combinations at d+n = 20 over the integer suite.
func Table4(opt Options) (Result, error) {
	outs, err := runSuite(workload.IntSuite(opt.Scale), carfSpec(core.DefaultParams()), opt)
	if err != nil {
		return Result{}, err
	}
	var combos [3][3]uint64
	var total uint64
	for _, o := range outs {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				combos[i][j] += o.Pstats.OperandCombos[i][j]
				total += o.Pstats.OperandCombos[i][j]
			}
		}
	}
	frac := func(a, b regfile.ValueType) float64 {
		if total == 0 {
			return 0
		}
		return float64(combos[a][b]) / float64(total)
	}

	tb := stats.Table{
		Title:  "Table 4: Operation distribution by source operand types (d+n = 20)",
		Header: []string{"source operands", "share"},
	}
	s, h, l := regfile.TypeSimple, regfile.TypeShort, regfile.TypeLong
	tb.AddRow("only simple operands", stats.Pct(frac(s, s)))
	tb.AddRow("only short operands", stats.Pct(frac(h, h)))
	tb.AddRow("only long operands", stats.Pct(frac(l, l)))
	tb.AddRow("combination of simple and short", stats.Pct(frac(s, h)))
	tb.AddRow("combination of simple and long", stats.Pct(frac(s, l)))
	tb.AddRow("combination of short and long", stats.Pct(frac(h, l)))
	same := frac(s, s) + frac(h, h) + frac(l, l)
	tb.AddNote("same-type operations: %s (paper: over 86%%)", stats.Pct(same))
	tb.AddNote("paper: 47.4 / 21.7 / 17.5 / 6.3 / 6.2 / 1.0 %%")
	return Result{Name: "table4", Tables: []stats.Table{tb}}, nil
}
