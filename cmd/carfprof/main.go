// Command carfprof profiles a workload's value locality: the live-value
// distributions behind Figures 1–2, memory-traffic partial locality, the
// instruction mix, and the value-type classification a content-aware
// register file would apply. Point it at a built-in kernel or an R64
// assembly file to judge whether content-awareness would pay off.
//
// Usage:
//
//	carfprof -kernel hashprobe
//	carfprof prog.s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"carf/internal/asm"
	"carf/internal/core"
	"carf/internal/isa"
	"carf/internal/metrics"
	"carf/internal/oracle"
	"carf/internal/pipeline"
	"carf/internal/profile"
	"carf/internal/regfile"
	"carf/internal/stats"
	"carf/internal/vm"
	"carf/internal/workload"
)

func main() {
	var (
		kernel     = flag.String("kernel", "", "built-in kernel to profile (alternative to a .s file argument)")
		scale      = flag.Float64("scale", 0.5, "workload scale for built-in kernels")
		period     = flag.Int("period", 64, "live-value sampling period in cycles")
		metricsOut = flag.String("metrics-out", "", "write interval metric samples of the content-aware pass to this file (.jsonl/.json for JSON lines, .csv for CSV)")
		interval   = flag.Uint64("interval", metrics.DefaultInterval, "metric sampling interval in cycles")
		topN       = flag.Int("top", 10, "merged static+dynamic report: N hottest static instructions with CPI stack (0 disables)")
	)
	flag.Parse()

	if *period <= 0 {
		fatal(fmt.Errorf("-period must be > 0"))
	}
	if *metricsOut != "" && *interval == 0 {
		fatal(fmt.Errorf("-interval must be > 0 when -metrics-out is set"))
	}
	prog, err := loadProgram(*kernel, *scale, flag.Args())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("profiling %s (%d static instructions)\n\n", prog.Name, len(prog.Code))

	if err := profileRun(prog, *period, *metricsOut, *interval, *topN); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "carfprof:", err)
	os.Exit(1)
}

func loadProgram(kernel string, scale float64, args []string) (*vm.Program, error) {
	switch {
	case kernel != "" && len(args) > 0:
		return nil, fmt.Errorf("give either -kernel or a file, not both")
	case kernel != "":
		k, err := workload.ByName(kernel, scale)
		if err != nil {
			return nil, err
		}
		return k.Prog, nil
	case len(args) == 1:
		src, err := os.ReadFile(args[0])
		if err != nil {
			return nil, err
		}
		return asm.Assemble(args[0], string(src))
	default:
		return nil, fmt.Errorf("usage: carfprof -kernel <name> | carfprof <file.s>")
	}
}

func profileRun(prog *vm.Program, period int, metricsOut string, interval uint64, topN int) error {
	// Pass 1: functional run for the instruction mix and memory streams.
	mix := map[isa.Class]uint64{}
	addrStream := oracle.NewStreamAnalyzer(16, 64)
	dataStream := oracle.NewStreamAnalyzer(16, 64)
	m := vm.New(prog)
	var total uint64
	for !m.Halted {
		inst, eff, err := m.Step()
		if err != nil {
			return err
		}
		total++
		mix[inst.Op.Class()]++
		if eff.Mem {
			addrStream.Note(eff.Addr)
			v := eff.RdValue
			if eff.Store {
				v = eff.StoreVal
			}
			dataStream.Note(v)
		}
		if total > 100_000_000 {
			return fmt.Errorf("program did not halt within 100M instructions")
		}
	}

	mixTable := stats.Table{
		Title:  "Instruction mix",
		Header: []string{"class", "share"},
	}
	classes := []struct {
		label string
		class isa.Class
	}{
		{"integer ALU", isa.ClassIntALU}, {"multiply/divide", isa.ClassIntMul},
		{"load", isa.ClassLoad}, {"store", isa.ClassStore},
		{"branch", isa.ClassBranch}, {"jump", isa.ClassJump},
		{"floating point", isa.ClassFPU},
	}
	for _, c := range classes {
		mixTable.AddRow(c.label, stats.Pct(float64(mix[c.class])/float64(total)))
	}
	mixTable.AddNote("%d dynamic instructions", total)
	fmt.Println(mixTable.Render())

	// Pass 2: pipeline run with the live-value oracle.
	exact := oracle.NewAnalyzer(0)
	sims := []*oracle.Analyzer{oracle.NewAnalyzer(8), oracle.NewAnalyzer(12), oracle.NewAnalyzer(16)}
	fan := oracle.Fanout{exact, sims[0], sims[1], sims[2]}
	cpu := pipeline.New(pipeline.DefaultConfig(), prog, regfile.Baseline())
	if _, err := cpu.RunContext(context.Background(), pipeline.Observe{Live: fan, LivePeriod: period}); err != nil {
		return err
	}

	live := stats.Table{
		Title:  "Live integer register values (Figure 1/2 methodology)",
		Header: append([]string{"grouping"}, oracle.BucketLabels[:]...),
	}
	addDist := func(label string, a *oracle.Analyzer) {
		row := []string{label}
		for _, f := range a.Distribution() {
			row = append(row, stats.Pct(f))
		}
		live.Rows = append(live.Rows, row)
	}
	addDist("exact value", exact)
	for i, d := range []int{8, 12, 16} {
		addDist(fmt.Sprintf("(64-%d)-similar", d), sims[i])
	}
	fmt.Println(live.Render())

	mem := stats.Table{
		Title:  "Memory traffic partial locality (d=16, 64-access window)",
		Header: []string{"stream", "coverage"},
	}
	mem.AddRow("addresses", stats.Pct(addrStream.Coverage()))
	mem.AddRow("data", stats.Pct(dataStream.Coverage()))
	fmt.Println(mem.Render())

	// Pass 3: what the content-aware file would do with it, with the
	// attribution profiler watching.
	model := core.New(core.DefaultParams())
	cpu2 := pipeline.New(pipeline.DefaultConfig(), prog, model)
	var obs pipeline.Observe
	var metricsFormat metrics.Format
	if metricsOut != "" {
		var err error
		if metricsFormat, err = metrics.FormatForPath(metricsOut); err != nil {
			return err
		}
		obs.Every, obs.Series = interval, new(metrics.TimeSeries)
	}
	if topN > 0 {
		obs.Profile = new(profile.Profiler)
	}
	st2, err := cpu2.RunContext(context.Background(), obs)
	if err != nil {
		return err
	}
	if ts := obs.Series; ts != nil {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := metrics.Write(f, *ts, metricsFormat); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d metric samples x %d series to %s\n\n",
			len(ts.Samples), len(ts.Names), metricsOut)
	}
	cs := model.Stats()
	carfT := stats.Table{
		Title:  "Content-aware classification at the paper's configuration (d+n=20, 8 short, 48 long)",
		Header: []string{"event", "simple", "short", "long"},
	}
	share := func(a [3]uint64) []string {
		var t uint64
		for _, v := range a {
			t += v
		}
		out := make([]string, 3)
		for i, v := range a {
			if t == 0 {
				out[i] = "-"
			} else {
				out[i] = stats.Pct(float64(v) / float64(t))
			}
		}
		return out
	}
	r := share(cs.ReadsByType)
	w := share(cs.WritesByType)
	carfT.AddRow("register reads", r[0], r[1], r[2])
	carfT.AddRow("register writes", w[0], w[1], w[2])
	carfT.AddNote("avg live long registers: %.2f of %d", cs.AvgLiveLong(), core.DefaultParams().NumLong)
	carfT.AddNote("IPC %.3f (content-aware) — long-heavy workloads benefit least", st2.IPC())
	fmt.Println(carfT.Render())

	// Merged static+dynamic attribution: where the cycles went, and
	// which static instructions the dynamic events cluster on.
	if prof := obs.Profile; prof != nil {
		if err := prof.Stack.CheckIdentity(); err != nil {
			return err
		}
		stackT := prof.Stack.Table("CPI stack (content-aware pass)")
		fmt.Println(stackT.Render())
		hotT := prof.PCs.Table(fmt.Sprintf("Hottest %d static instructions (content-aware pass)", topN), topN)
		fmt.Println(hotT.Render())
	}
	return nil
}
