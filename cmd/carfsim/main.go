// Command carfsim runs one benchmark kernel on the simulated processor
// with a chosen integer register file organization and prints the
// measurements. It can additionally export interval time-series metrics
// (JSON lines or CSV), a Perfetto-loadable Chrome-format pipeline
// trace, and Go pprof profiles of the simulator itself.
//
// Usage:
//
//	carfsim -kernel qsort -org content-aware -dplusn 20 -short 8 -long 48
//	carfsim -kernel qsort -interval 10000 -metrics-out m.jsonl -trace-out t.json
//	carfsim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"carf"
	"carf/internal/experiments"
	"carf/internal/harden"
	"carf/internal/metrics"
	"carf/internal/pipeline"
	"carf/internal/sched"
	"carf/internal/telemetry"
)

func main() {
	var (
		kernel = flag.String("kernel", "qsort", "benchmark kernel (see -list)")
		org    = flag.String("org", string(carf.ContentAware), "register file organization: unlimited, baseline, content-aware, content-aware-cam")
		dplusn = flag.Int("dplusn", 0, "content-aware d+n (default 20)")
		short  = flag.Int("short", 0, "content-aware short registers (default 8)")
		long   = flag.Int("long", 0, "content-aware long registers (default 48)")
		scale  = flag.Float64("scale", 1.0, "workload scale factor")
		maxi   = flag.Uint64("max-instructions", 0, "stop after N instructions (0 = run to completion)")
		list   = flag.Bool("list", false, "list kernels and organizations, then exit")

		check    = flag.Bool("check", false, "run hardened: lockstep co-simulation of the golden model, invariant sweeps, watchdog")
		checkInt = flag.Uint64("check-interval", 0, "invariant-sweep period in cycles with -check (0 = default)")

		inject      = flag.String("inject", "", "fault-injection mode: fault class to inject (simple-bit, short-bit, long-bit, free-list, ref-clear)")
		injectCycle = flag.Uint64("inject-cycle", 2000, "cycle at which the injected fault lands")
		injectSeed  = flag.Uint64("inject-seed", 1, "seed selecting the injection target deterministically")

		profileOut = flag.String("profile-out", "", "write the per-PC attribution profile and CPI stack to this file (.jsonl/.json or .csv)")
		cpiStack   = flag.Bool("cpistack", false, "print the CPI stack: every commit-slot deficit charged to one blame category")
		topN       = flag.Int("top", 0, "print the N hottest static instructions with per-PC attribution")

		metricsOut = flag.String("metrics-out", "", "write interval metric samples to this file (.jsonl/.json for JSON lines, .csv for CSV)")
		interval   = flag.Uint64("interval", metrics.DefaultInterval, "metric sampling interval in cycles")
		traceOut   = flag.String("trace-out", "", "write a Chrome-trace-format (Perfetto-loadable) pipeline trace to this file")
		traceCap   = flag.Int("trace-cap", 20000, "retain at most N traced instructions (-1 = unbounded)")
		cpuProfile = flag.String("cpuprofile", "", "write a Go CPU profile of the simulator to this file")
		memProfile = flag.String("memprofile", "", "write a Go heap profile of the simulator to this file")
		telAddr    = flag.String("telemetry", "", "serve live telemetry (/metrics, /runs, /events, /healthz) on this host:port and route the run through the global scheduler")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the simulation cooperatively (the pipeline
	// polls the context between cycles); the exit path below still stops
	// and flushes an active CPU profile instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *list {
		fmt.Println("kernels:")
		for _, k := range carf.Kernels() {
			fmt.Printf("  %s\n", k)
		}
		fmt.Println("organizations:")
		for _, o := range carf.Organizations() {
			fmt.Printf("  %s\n", o)
		}
		fmt.Println("fault classes (-inject):")
		for _, c := range harden.FaultClasses() {
			fmt.Printf("  %s\n", c)
		}
		return
	}

	if *inject != "" {
		runInjection(*kernel, *scale, *inject, *injectCycle, *injectSeed)
		return
	}

	// stopProf flushes and closes an active -cpuprofile; it is safe to
	// call more than once, so error paths can invoke it before os.Exit
	// (which skips the deferred call).
	stopProf := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		stopProf = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProf()
	}

	cfg := carf.Config{
		Organization:    carf.Organization(*org),
		DPlusN:          *dplusn,
		ShortRegs:       *short,
		LongRegs:        *long,
		Scale:           *scale,
		MaxInstructions: *maxi,
		Check:           *check,
		CheckInterval:   *checkInt,
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *metricsOut != "" {
		if *interval == 0 {
			fatal(fmt.Errorf("-interval must be > 0 when -metrics-out is set"))
		}
		cfg.MetricsInterval = *interval
	}
	if *traceOut != "" {
		cfg.TraceEvents = *traceCap
	}
	if *profileOut != "" || *cpiStack || *topN > 0 {
		cfg.Profile = true
	}
	var profileFormat metrics.Format
	if *profileOut != "" {
		// Resolve the export format before the simulation runs so a bad
		// extension fails fast.
		var err error
		if profileFormat, err = metrics.FormatForPath(*profileOut); err != nil {
			fatal(err)
		}
	}

	run := func() (carf.Result, error) { return carf.RunCtx(ctx, *kernel, cfg) }
	if *telAddr != "" {
		// Route the run through the global scheduler so the telemetry
		// plane observes it: /runs shows it in flight, /events streams
		// its lifecycle, /metrics carries the latency histograms. The run
		// is not memoized — a CLI invocation always simulates.
		logger := telemetry.NewLogger(os.Stderr, slog.LevelInfo)
		hub := telemetry.NewHub()
		sched.Global().SetObserver(hub)
		sv := telemetry.NewServer(hub, sched.Global())
		addr, err := sv.Start(*telAddr)
		if err != nil {
			fatal(err)
		}
		defer sv.Close()
		logger.Info("telemetry serving", "addr", addr,
			"endpoints", "/metrics /runs /events /healthz")
		run = func() (carf.Result, error) {
			key := sched.KeyOf("carfsim", *kernel, cfg)
			label := fmt.Sprintf("carfsim/%s/%s", *kernel, *org)
			v, prov, err := sched.Global().DoProgress(ctx, key, label, false, nil, func(report sched.ProgressFunc) (any, error) {
				return carf.RunCtxProgress(ctx, *kernel, cfg, report)
			})
			logArgs := append([]any{"kernel", *kernel, "org", *org}, telemetry.LogProvenance(prov)...)
			if err != nil {
				logger.Error("run failed", append(logArgs, "err", err)...)
				return carf.Result{}, err
			}
			logger.Info("run complete", logArgs...)
			return v.(carf.Result), nil
		}
	}
	res, err := run()
	if err != nil {
		stopProf()
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "carfsim: interrupted:", err)
			os.Exit(1)
		}
		fatal(err)
	}

	fmt.Printf("kernel            %s\n", res.Kernel)
	fmt.Printf("organization      %s\n", res.Organization)
	fmt.Printf("instructions      %d\n", res.Instructions)
	fmt.Printf("cycles            %d\n", res.Cycles)
	fmt.Printf("IPC               %.3f\n", res.IPC)
	fmt.Printf("branches          %d (%.2f%% mispredicted)\n",
		res.Branches, 100*float64(res.Mispredicts)/float64(max(res.Branches, 1)))
	fmt.Printf("int operands      %d (%.1f%% bypassed)\n", res.IntOperands, 100*res.BypassRate)
	fmt.Printf("RF energy         %.3e (model units)\n", res.RegFileEnergy)
	fmt.Printf("RF area           %.3e (model units)\n", res.RegFileArea)
	fmt.Printf("RF access time    %.1f (model units)\n", res.RegFileAccessTime)
	if res.Organization == carf.ContentAware || res.Organization == carf.ContentAwareCAM {
		total := func(a [3]uint64) uint64 { return a[0] + a[1] + a[2] }
		fmt.Printf("reads by type     simple=%d short=%d long=%d (total %d)\n",
			res.ReadsByType[0], res.ReadsByType[1], res.ReadsByType[2], total(res.ReadsByType))
		fmt.Printf("writes by type    simple=%d short=%d long=%d (total %d)\n",
			res.WritesByType[0], res.WritesByType[1], res.WritesByType[2], total(res.WritesByType))
		fmt.Printf("avg live long     %.2f\n", res.AvgLiveLong)
		fmt.Printf("recovery stalls   %d\n", res.RecoveryStalls)
	}

	if *cpiStack {
		tab := res.Profile.Stack.Table("CPI stack (slots charged per blame category)")
		fmt.Println()
		fmt.Print(tab.Render())
		if err := res.Profile.Stack.CheckIdentity(); err != nil {
			fatal(err)
		}
	}
	if *topN > 0 {
		tab := res.Profile.PCs.Table(fmt.Sprintf("top %d static instructions", *topN), *topN)
		fmt.Println()
		fmt.Print(tab.Render())
	}
	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			fatal(err)
		}
		if err := res.Profile.Write(f, profileFormat); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("profile           CPI stack + per-PC records -> %s\n", *profileOut)
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res.Series); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics           %d samples x %d series -> %s\n",
			len(res.Series.Samples), len(res.Series.Names), *metricsOut)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, res.Trace); err != nil {
			fatal(err)
		}
		fmt.Printf("trace             %d instructions -> %s (load in https://ui.perfetto.dev)\n",
			len(res.Trace.Events), *traceOut)
		if res.Trace.Dropped > 0 {
			fmt.Printf("                  %d events dropped (raise -trace-cap to keep more)\n", res.Trace.Dropped)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func writeMetrics(path string, ts *metrics.TimeSeries) error {
	format, err := metrics.FormatForPath(path)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.Write(f, *ts, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, buf *pipeline.TraceBuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteChromeTrace(f, pipeline.ChromeTraceEvents(buf.Events)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runInjection runs one seeded fault injection on the content-aware file
// and reports what was corrupted, which checker caught it, and after how
// many cycles (the single-run version of the "faults" experiment).
func runInjection(kernel string, scale float64, class string, cycle, seed uint64) {
	fc, err := harden.ParseFaultClass(class)
	if err != nil {
		fatal(err)
	}
	out, err := experiments.RunFaultInjection(kernel, scale, harden.Fault{Class: fc, Cycle: cycle, Seed: seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kernel            %s\n", kernel)
	fmt.Printf("fault             %s (seed %d, scheduled at cycle %d)\n", fc, seed, cycle)
	if !out.Injected {
		fmt.Println("injected          no (no suitable target appeared)")
		return
	}
	fmt.Printf("injected          cycle %d: %s\n", out.InjectedAt, out.Detail)
	if !out.Detected {
		fmt.Println("detected          no (the corruption was benign for this run)")
		return
	}
	fmt.Printf("detected          by %s", out.Detector)
	if out.DetectedAt > 0 {
		fmt.Printf(" at cycle %d (latency %d cycles)", out.DetectedAt, out.Latency())
	}
	fmt.Println()
	if out.Err != "" {
		fmt.Printf("error             %s\n", out.Err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "carfsim:", err)
	os.Exit(1)
}

func max[T int | uint64](a, b T) T {
	if a > b {
		return a
	}
	return b
}
