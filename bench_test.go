package carf

// One benchmark per paper exhibit (DESIGN.md §4 maps ids to figures and
// tables): each regenerates its experiment at a reduced workload scale
// and reports the headline number as a custom metric, so
// `go test -bench=. -benchmem` exercises the entire evaluation path.
// Full-size runs are produced by cmd/carfstudy.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"carf/internal/core"
	"carf/internal/experiments"
	"carf/internal/harden"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/vm"
	"carf/internal/workload"
)

const benchScale = 0.05

func benchExperiment(b *testing.B, name string) experiments.Result {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(name, experiments.Options{Scale: benchScale})
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// cellPct extracts a percentage cell from a rendered experiment table.
func cellPct(b *testing.B, res experiments.Result, table, row, col int) float64 {
	b.Helper()
	cell := res.Tables[table].Rows[row][col]
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func BenchmarkFig1ValueDistribution(b *testing.B) {
	res := benchExperiment(b, "fig1")
	b.ReportMetric(cellPct(b, res, 0, 0, 1), "int-group1-%")
}

func BenchmarkFig2Similarity(b *testing.B) {
	res := benchExperiment(b, "fig2")
	b.ReportMetric(cellPct(b, res, 0, 0, 1), "d8-group1-%")
	b.ReportMetric(cellPct(b, res, 0, 2, 1), "d16-group1-%")
}

func BenchmarkFig5IPCSweep(b *testing.B) {
	res := benchExperiment(b, "fig5")
	// d+n = 20 row (index 3 in the sweep 8,12,16,20,...).
	b.ReportMetric(cellPct(b, res, 0, 3, 1), "int-relIPC-%")
	b.ReportMetric(cellPct(b, res, 0, 3, 2), "fp-relIPC-%")
}

func BenchmarkFig6AccessMix(b *testing.B) {
	res := benchExperiment(b, "fig6")
	b.ReportMetric(cellPct(b, res, 0, 4, 3), "read-long-at-dn24-%")
}

func BenchmarkFig7Energy(b *testing.B) {
	res := benchExperiment(b, "fig7")
	b.ReportMetric(cellPct(b, res, 0, 3, 1), "carf-energy-at-dn20-%")
	b.ReportMetric(cellPct(b, res, 0, 3, 2), "baseline-energy-%")
}

func BenchmarkFig8Area(b *testing.B) {
	res := benchExperiment(b, "fig8")
	b.ReportMetric(cellPct(b, res, 0, 3, 1), "carf-area-at-dn20-%")
}

func BenchmarkFig9AccessTime(b *testing.B) {
	res := benchExperiment(b, "fig9")
	b.ReportMetric(cellPct(b, res, 0, 3, 1), "simple-time-at-dn20-%")
	b.ReportMetric(cellPct(b, res, 0, 3, 4), "baseline-time-%")
}

func BenchmarkTable2Bypass(b *testing.B) {
	res := benchExperiment(b, "table2")
	b.ReportMetric(cellPct(b, res, 0, 0, 2), "carf-int-bypass-%")
}

func BenchmarkTable3AccessEnergy(b *testing.B) {
	res := benchExperiment(b, "table3")
	b.ReportMetric(cellPct(b, res, 0, 3, 4), "baseline-peracc-%")
}

func BenchmarkTable4OperandTypes(b *testing.B) {
	res := benchExperiment(b, "table4")
	b.ReportMetric(cellPct(b, res, 0, 0, 1), "only-simple-%")
}

func BenchmarkSweepShortSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, m := range []int{2, 8, 32} {
			p := core.DefaultParams()
			p.NumShort = m
			runBenchKernel(b, "listchase", core.New(p))
		}
	}
}

func BenchmarkSweepLongSize(b *testing.B) {
	var live float64
	for i := 0; i < b.N; i++ {
		for _, k := range []int{40, 48, 56, 112} {
			p := core.DefaultParams()
			p.NumLong = k
			model := core.New(p)
			runBenchKernel(b, "crc64", model)
			if k == 48 {
				live = model.Stats().AvgLiveLong()
			}
		}
	}
	b.ReportMetric(live, "avg-live-long-at-48")
}

func BenchmarkSweepPorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ports := range [][2]int{{16, 8}, {8, 8}, {8, 6}} {
			model := regfile.NewConventional("sweep", 112, ports[0], ports[1])
			runBenchKernel(b, "histo", model)
		}
	}
}

func BenchmarkExtCAMShortFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.DefaultParams()
		p.CAMShort = true
		runBenchKernel(b, "treeinsert", core.New(p))
	}
}

func BenchmarkExtSMT(b *testing.B) {
	ka, err := workload.ByName("qsort", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	kb, err := workload.ByName("crc64", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	var combined float64
	for i := 0; i < b.N; i++ {
		model := core.New(core.DefaultParams())
		smt := pipeline.NewSMT(pipeline.DefaultConfig(),
			[2]*vm.Program{ka.Prog, kb.Prog}, model)
		sts, err := smt.RunContext(context.Background(), pipeline.Observe{})
		if err != nil {
			b.Fatal(err)
		}
		combined = sts[0].IPC() + sts[1].IPC()
	}
	b.ReportMetric(combined, "combined-IPC")
}

// runBenchKernel simulates one kernel at bench scale and fails the
// benchmark on any error or wrong architectural result.
func runBenchKernel(b *testing.B, name string, model regfile.Model) pipeline.Stats {
	b.Helper()
	k, err := workload.ByName(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, model)
	st, err := cpu.Run()
	if err != nil {
		b.Fatal(err)
	}
	if got := cpu.Machine().X[workload.ResultReg]; got != k.Expected {
		b.Fatalf("%s: result %#x, want %#x", name, got, k.Expected)
	}
	return st
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated instructions per wall-clock second appear as the custom
// metric; allocations via -benchmem).
func BenchmarkSimulatorThroughput(b *testing.B) {
	k, err := workload.ByName("histo", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline())
		st, err := cpu.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-inst/s")
}

// BenchmarkCheckedThroughput is BenchmarkSimulatorThroughput with the
// full hardening layer on (lockstep co-simulation, invariant sweeps,
// watchdog); comparing sim-inst/s between the two quantifies the cost of
// -check. The unhardened benchmarks above are the no-overhead baseline:
// with Check off the harden state is never allocated.
func BenchmarkCheckedThroughput(b *testing.B) {
	k, err := workload.ByName("histo", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()
	cfg.Harden = harden.Options{Lockstep: true, SweepEvery: 4096, WatchdogAfter: 50000}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := pipeline.NewChecked(cfg, k.Prog, regfile.Baseline())
		if err != nil {
			b.Fatal(err)
		}
		st, err := cpu.Run()
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Instructions
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-inst/s")
}

// BenchmarkProfiledThroughput measures the attribution profiler's cost
// the same way BenchmarkCheckedThroughput measures the hardening
// layer's: identical runs with the profiler off and on, sim-inst/s as
// the comparison metric. The "off" run pays only the per-cycle nil
// check, so the two sub-benchmarks bound the opt-in overhead.
func BenchmarkProfiledThroughput(b *testing.B) {
	k, err := workload.ByName("histo", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, profiled bool) {
		var insts uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cpu := pipeline.New(pipeline.DefaultConfig(), k.Prog, regfile.Baseline())
			var obs pipeline.Observe
			if profiled {
				obs.Profile = new(profile.Profiler)
			}
			st, err := cpu.RunContext(context.Background(), obs)
			if err != nil {
				b.Fatal(err)
			}
			insts += st.Instructions
		}
		b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim-inst/s")
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkCARFWritePath measures the core classification/write path in
// isolation.
func BenchmarkCARFWritePath(b *testing.B) {
	f := core.New(core.DefaultParams())
	f.NoteAddress(0x5542_1000_0000)
	values := []uint64{7, 0x5542_1000_0040, 0xDEAD_BEEF_F00D_CAFE, ^uint64(0)}
	tags := make([]int, 16)
	for i := range tags {
		tags[i], _ = f.Alloc()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tag := tags[i%len(tags)]
		if !f.TryWrite(tag, values[i%len(values)]) {
			f.Free(tag)
			tags[i%len(tags)], _ = f.Alloc()
		}
	}
}
