package experiments

import (
	"fmt"

	"carf/internal/regfile"
	"carf/internal/stats"
	"carf/internal/workload"
)

// Fig6 reproduces Figure 6: the distribution of register file read and
// write accesses by value type (simple/short/long) as a function of d+n,
// with n fixed at 3 (8 short registers) and 48 long registers.
func Fig6(opt Options) (Result, error) {
	kernels := workload.AllKernels(opt.Scale)
	read := stats.Table{
		Title:  "Figure 6 (READ): access distribution by value type",
		Header: []string{"d+n", "simple", "short", "long"},
	}
	write := stats.Table{
		Title:  "Figure 6 (WRITE): access distribution by value type",
		Header: []string{"d+n", "simple", "short", "long"},
	}
	dnOuts, err := runParams(kernels, dnParams(), opt)
	if err != nil {
		return Result{}, err
	}
	for i, dn := range dnSweep {
		var reads, writes [3]uint64
		for _, o := range dnOuts[i] {
			for t := 0; t < 3; t++ {
				reads[t] += o.Carf.ReadsByType[t]
				writes[t] += o.Carf.WritesByType[t]
			}
		}
		read.Rows = append(read.Rows, shareRow(dn, reads))
		write.Rows = append(write.Rows, shareRow(dn, writes))
	}
	read.AddNote("paper: at d+n=24 over 50%% of accesses are short and under 20%% long")
	return Result{Name: "fig6", Tables: []stats.Table{read, write}}, nil
}

func shareRow(dn int, counts [3]uint64) []string {
	var total uint64
	for _, c := range counts {
		total += c
	}
	row := []string{fmt.Sprintf("%d", dn)}
	for t := regfile.TypeSimple; t <= regfile.TypeLong; t++ {
		frac := 0.0
		if total > 0 {
			frac = float64(counts[t]) / float64(total)
		}
		row = append(row, stats.Pct(frac))
	}
	return row
}
