package experiments

import (
	"fmt"

	"carf/internal/core"
	"carf/internal/energy"
	"carf/internal/pipeline"
	"carf/internal/regfile"
	"carf/internal/stats"
	"carf/internal/workload"
)

// Sweeps reproduces the §4 sensitivity discussion: the effect of the
// Short and Long file sizes on IPC, the average live Long-register
// occupancy (§6 reports 12.7), pseudo-deadlock behaviour, and the
// port-count characterization of the baseline choice.
func Sweeps(opt Options) (Result, error) {
	ints := workload.IntSuite(opt.Scale)
	fps := workload.FPSuite(opt.Scale)
	baseInt, err := runSuite(ints, baselineSpec(), opt)
	if err != nil {
		return Result{}, err
	}
	baseFP, err := runSuite(fps, baselineSpec(), opt)
	if err != nil {
		return Result{}, err
	}

	carfInt, err := runParams(ints, sizeParams(), opt)
	if err != nil {
		return Result{}, err
	}
	carfFP, err := runParams(fps, sizeParams(), opt)
	if err != nil {
		return Result{}, err
	}

	short := stats.Table{
		Title:  "Short register file size (IPC relative to baseline)",
		Header: []string{"short regs", "INT", "FP"},
	}
	for i, m := range shortSizes {
		short.AddRow(fmt.Sprintf("%d", m),
			stats.Pct(meanRelIPC(carfInt[i], baseInt)), stats.Pct(meanRelIPC(carfFP[i], baseFP)))
	}
	short.AddNote("paper: even 2 short registers reach 98+%% (INT) / 99+%% (FP); 8 chosen")

	long := stats.Table{
		Title:  "Long register file size (IPC relative to baseline; occupancy and recovery)",
		Header: []string{"long regs", "INT", "FP", "avg live long", "recovery stalls", "forced spills"},
	}
	for i, k := range longSizes {
		j := len(shortSizes) + i // k's index in sizeParams
		var live []float64
		var recov, spills uint64
		for _, o := range append(append([]runOut{}, carfInt[j]...), carfFP[j]...) {
			live = append(live, o.Carf.AvgLiveLong())
			recov += o.Pstats.RecoveryStallCycles
			spills += o.Pstats.ForcedSpills
		}
		long.AddRow(fmt.Sprintf("%d", k),
			stats.Pct(meanRelIPC(carfInt[j], baseInt)), stats.Pct(meanRelIPC(carfFP[j], baseFP)),
			stats.F3(stats.Mean(live)), fmt.Sprintf("%d", recov), fmt.Sprintf("%d", spills))
	}
	long.AddNote("paper: 48 long regs match 112 within noise; 40 loses ~0.6%%; avg live long ~12.7")

	ports, err := portSweep(opt, ints)
	if err != nil {
		return Result{}, err
	}

	return Result{Name: "sweeps", Tables: []stats.Table{short, long, ports}}, nil
}

// The Short and Long file sizes Sweeps reports.
var shortSizes, longSizes = []int{2, 8, 32}, []int{40, 48, 56, 112}

// sizeParams returns the default parameters at each Short size, then
// at each Long size: both sweeps as one list, so a kernel's default-size
// run leads every size that shares its timing.
func sizeParams() []core.Params {
	var ps []core.Params
	for _, m := range shortSizes {
		p := core.DefaultParams()
		p.NumShort = m
		ps = append(ps, p)
	}
	for _, k := range longSizes {
		p := core.DefaultParams()
		p.NumLong = k
		ps = append(ps, p)
	}
	return ps
}

// portSweep measures the §4 port-selection analysis: with port
// contention enforced (Config.PortContention), sweep the baseline file's
// read/write port counts and report IPC relative to the 16R/8W
// configuration alongside the static energy/area/time characterization.
func portSweep(opt Options, ints []*workload.Ref) (stats.Table, error) {
	tech := energy.DefaultTech()
	unl := tech.UnlimitedReference()
	cfg := pipeline.DefaultConfig()
	cfg.PortContention = true

	type pcfg struct {
		label  string
		rd, wr int
	}
	sweep := []pcfg{
		{"16R/8W (unlimited ports)", 16, 8},
		{"8R/8W", 8, 8},
		{"8R/6W (baseline)", 8, 6},
		{"4R/4W", 4, 4},
		{"2R/2W", 2, 2},
	}

	ports := stats.Table{
		Title:  "Port configuration sweep (contention enforced; IPC relative to 16R/8W)",
		Header: []string{"config", "IPC", "per-access energy", "area", "access time"},
	}
	var refIPC float64
	for i, pc := range sweep {
		spec := modelSpec{
			id: fmt.Sprintf("conv:ports:%dR%dW", pc.rd, pc.wr),
			new: func() regfile.Model {
				return regfile.NewConventional("ports", 112, pc.rd, pc.wr)
			},
		}
		outs, err := runSuiteCfg(ints, []modelSpec{spec}, cfg, opt)
		if err != nil {
			return stats.Table{}, err
		}
		var vals []float64
		for _, o := range outs[0] {
			vals = append(vals, o.Pstats.IPC())
		}
		ipc := stats.Mean(vals)
		if i == 0 {
			refIPC = ipc
		}
		e := tech.Estimate(regfile.FileSpec{
			Name: pc.label, Entries: 112, WidthBits: 64,
			ReadPorts: pc.rd, WritePorts: pc.wr,
		})
		ports.AddRow(pc.label,
			stats.Pct(ipc/refIPC),
			stats.Pct(e.PerAccess/unl.PerAccess),
			stats.Pct(e.Area/unl.Area),
			stats.Pct(e.AccessTime/unl.AccessTime))
	}
	ports.AddNote("paper: 8 read ports cost 0.17%% IPC and 6 write ports another 0.21%% vs 16R/8W;")
	ports.AddNote("heavy reductions (4R/4W, 2R/2W) show where bandwidth finally binds")
	return ports, nil
}
