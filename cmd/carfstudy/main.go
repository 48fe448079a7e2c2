// Command carfstudy regenerates the paper's evaluation: every figure and
// table, the sensitivity sweeps, and the extension studies. Output goes
// to stdout or, with -out, to a file (EXPERIMENTS.md quotes such a run).
//
// Experiments run concurrently (-jobs) through the process-global
// simulation scheduler: the pool bound is shared across all of them,
// identical simulations are deduplicated, and completed runs are
// memoized, so the full study reuses most of its work. Output streams
// in experiment order regardless of completion order, and the rendered
// results are byte-identical at any -jobs value — and with telemetry on
// or off. The one shared pool is what keeps every CPU busy; a study
// needs no more than one process.
//
// With -store, completed runs persist as blobs in a directory, so a
// rerun (after a crash, say) serves every finished run from disk. Any
// number of processes may share one store directory at once. On Linux,
// per-simulation leases (byte-range locks on the store's one
// leases.lock file) make sure no persisted run is simulated twice
// across them, and a process that loses a lease waits for the winner's
// blob instead; on other platforms the processes run uncoordinated,
// which may duplicate work but never changes the output.
//
// With -telemetry the study serves its live observability plane over
// HTTP while it runs: /metrics (Prometheus), /runs (live run table),
// /events (SSE lifecycle stream), /healthz. With -trace-out it exports
// the orchestration timeline — experiment spans, per-run queue waits,
// simulation executions across the worker pool, cache hits and dedup
// joins, all correlated by run key — as a Perfetto-loadable Chrome
// trace. Progress and lifecycle lines go to stderr as structured slog
// records; rendered study output (stdout/-out) is unaffected.
//
// Usage:
//
//	carfstudy                      # everything, standard experiment scale
//	carfstudy -exp fig5,table2     # selected experiments
//	carfstudy -jobs 4              # run up to 4 experiments concurrently
//	carfstudy -scale 1.0           # full-size workloads (slower)
//	carfstudy -store DIR           # persist runs; reuse them across invocations
//	carfstudy -telemetry 127.0.0.1:9090
//	carfstudy -progress            # live per-simulation progress on stderr
//	carfstudy -trace-out study-trace.json
//	carfstudy -list
//
// A -telemetry study is watchable live from another terminal with
// carftop (plain-text dashboard over /runs) or by curling
// /runs/{id}/stream for one run's interval-level SSE frames.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"carf"
	"carf/internal/experiments"
	"carf/internal/sched"
	"carf/internal/store"
	"carf/internal/telemetry"
)

// result is one experiment's rendered output (or failure).
type result struct {
	rep     carf.ExperimentReport
	err     error
	elapsed time.Duration
}

// progressLogger returns a per-experiment progress callback that logs a
// throttled stderr line per live frame: which simulation is executing,
// how far along it is, its interval-window IPC, and its ETA. One
// throttle per experiment (not per simulation) keeps a parallel
// experiment to a line every couple of seconds. Logging is purely
// observational: stdout and -out output are byte-identical with or
// without it.
func progressLogger(logger *slog.Logger, exp string) func(carf.Progress) {
	var mu sync.Mutex
	var last time.Time
	return func(p carf.Progress) {
		mu.Lock()
		if time.Since(last) < 2*time.Second {
			mu.Unlock()
			return
		}
		last = time.Now()
		mu.Unlock()
		attrs := []any{"exp", exp, "run", p.Label, "insts", p.Insts}
		if p.Pct >= 0 {
			attrs = append(attrs, "pct", fmt.Sprintf("%.0f%%", p.Pct*100))
		}
		if p.IntervalIPC > 0 {
			attrs = append(attrs, "interval_ipc", fmt.Sprintf("%.3f", p.IntervalIPC))
		}
		if p.ETASeconds > 0 {
			attrs = append(attrs, "eta", (time.Duration(p.ETASeconds * float64(time.Second))).Round(time.Millisecond))
		}
		logger.Info("simulation progress", attrs...)
	}
}

// runExperiment runs one experiment under an experiment span on hub
// (nil-safe) and logs "experiment started" and "experiment finished"
// lines. With progress, live frames are logged through progressLogger.
func runExperiment(ctx context.Context, logger *slog.Logger, hub *telemetry.Hub, name string, scale float64, progress bool) result {
	sp := hub.ExperimentStart(name)
	logger.Info("experiment started", "exp", name)
	t0 := time.Now()
	opt := carf.ExperimentOptions{Ctx: ctx, Scale: scale}
	if progress {
		opt.OnProgress = progressLogger(logger, name)
	}
	rep, err := carf.RunExperimentReport(name, opt)
	elapsed := time.Since(t0)
	hub.ExperimentEnd(name, sp, elapsed, err)
	if err == nil {
		logger.Info("experiment finished", "exp", name,
			"elapsed", elapsed.Round(time.Millisecond),
			"runs", rep.Sched.Runs, "simulated", rep.Sched.Misses,
			"cached", rep.Sched.Hits, "disk", rep.Sched.DiskHits,
			"peer", rep.Sched.PeerHits, "joined", rep.Sched.Joins)
	}
	return result{rep: rep, err: err, elapsed: elapsed}
}

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment ids, or \"all\"")
		scale    = flag.Float64("scale", 0.25, "workload scale factor")
		jobs     = flag.Int("jobs", 1, "experiments to run concurrently (simulation parallelism is bounded by the shared scheduler pool)")
		out      = flag.String("out", "", "write results to this file instead of stdout")
		telAddr  = flag.String("telemetry", "", "serve live telemetry (/metrics, /runs, /events, /healthz) on this host:port while the study runs")
		progress = flag.Bool("progress", false, "log live simulation progress and suite-level ETA to stderr (rendered output is unaffected)")
		traceOut = flag.String("trace-out", "", "write the orchestration timeline (Perfetto-loadable Chrome trace) to this file")
		storeDir = flag.String("store", "", "persistent result store directory: completed runs are written as checksummed blobs and reused across invocations")
		list     = flag.Bool("list", false, "list experiments, then exit")
	)
	flag.Parse()
	logger := telemetry.NewLogger(os.Stderr, slog.LevelInfo)

	// SIGINT/SIGTERM cancel in-flight scheduler work cooperatively; the
	// shutdown path below still flushes -out/-trace-out and closes the
	// telemetry server instead of dying mid-write.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *list {
		for _, name := range carf.Experiments() {
			fmt.Printf("%-8s %s\n", name, carf.DescribeExperiment(name))
		}
		return
	}

	if err := (carf.Config{Scale: *scale}).Validate(); err != nil {
		logger.Error("invalid configuration", "err", err)
		os.Exit(1)
	}
	if *jobs < 1 {
		*jobs = 1
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, Schema: experiments.StoreSchema, Logger: logger})
		if err != nil {
			logger.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		defer st.Close()
		sched.Global().SetTier(st)
		s := st.Stats()
		logger.Info("result store attached", "mode", s.Mode, "dir", s.Dir, "blobs", s.DiskBlobs, "degraded", s.Degraded)
	}

	// The telemetry plane is passive: the hub observes the global
	// scheduler and feeds the span tracer, the HTTP server, and the SSE
	// stream, but rendered study output is byte-identical with or
	// without it.
	var hub *telemetry.Hub
	if *telAddr != "" || *traceOut != "" {
		hub = telemetry.NewHub()
		sched.Global().SetObserver(hub)
	}
	if *telAddr != "" {
		sv := telemetry.NewServer(hub, sched.Global())
		addr, err := sv.Start(*telAddr)
		if err != nil {
			logger.Error("telemetry server failed", "err", err)
			os.Exit(1)
		}
		defer sv.Close()
		logger.Info("telemetry serving", "addr", addr,
			"endpoints", "/metrics /runs /events /healthz")
	}

	names := carf.Experiments()
	if *exps != "all" {
		names = strings.Split(*exps, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			logger.Error("cannot create output file", "path", *out, "err", err)
			os.Exit(1)
		}
		w = f
	}

	start := time.Now()
	fmt.Fprintf(w, "carfstudy: content-aware register file evaluation (scale %.2f)\n\n", *scale)

	exitCode := 0
	reports := make([]result, len(names))
	completed := 0

	// Launch up to -jobs experiments at once; each delivers into its own
	// single-slot channel so the printer below can stream results in
	// experiment order while later experiments keep running. Simulation
	// concurrency inside them stays bounded by the global scheduler pool.
	sem := make(chan struct{}, *jobs)
	done := make([]chan result, len(names))
	for i, name := range names {
		done[i] = make(chan result, 1)
		go func(name string, ch chan<- result) {
			sem <- struct{}{}
			defer func() { <-sem }()
			ch <- runExperiment(ctx, logger, hub, name, *scale, *progress)
		}(name, done[i])
	}

	// Stream results in experiment order. On failure — including a
	// signal-driven cancellation — stop printing but fall through to the
	// flush/close path below, so partial output and the trace survive.
	for i, name := range names {
		r := <-done[i]
		if r.err != nil {
			if errors.Is(r.err, context.Canceled) || ctx.Err() != nil {
				logger.Error("study interrupted, flushing partial output", "exp", name)
			} else {
				logger.Error("experiment failed", "exp", name, "err", r.err)
			}
			exitCode = 1
			break
		}
		reports[i] = r
		completed++
		fmt.Fprintf(w, "== %s: %s (%.1fs)\n\n%s\n", name, carf.DescribeExperiment(name),
			r.elapsed.Seconds(), r.rep.Text)
		if *progress {
			if remaining := len(names) - completed; remaining > 0 {
				avg := time.Since(start) / time.Duration(completed)
				logger.Info("study progress",
					"completed", completed, "total", len(names),
					"pct", fmt.Sprintf("%.0f%%", 100*float64(completed)/float64(len(names))),
					"eta", (avg * time.Duration(remaining)).Round(time.Second))
			}
		}
	}

	if exitCode == 0 {
		totals := carf.GlobalSchedulerStats()
		fmt.Fprintf(w, "total: %d experiments in %.1fs (jobs %d; %d simulations: %d run, %d cached, %d disk, %d peer, %d joined)\n",
			len(names), time.Since(start).Seconds(), *jobs, totals.Runs, totals.Misses, totals.Hits, totals.DiskHits, totals.PeerHits, totals.Joins)
		if st != nil {
			// Store condition next to the scheduler totals, so a run that
			// shares its store with other processes is diagnosable from
			// the terminal alone.
			fmt.Fprintf(w, "%s\n", storeLine(st.Stats(), totals.LeaseWait.Seconds()))
		}
		nameWidth := 0
		for _, name := range names {
			nameWidth = max(nameWidth, len(name))
		}
		fmt.Fprintf(w, "\nper-experiment scheduler activity:\n")
		for i, name := range names {
			s := reports[i].rep.Sched
			fmt.Fprintf(w, "  %-*s %4d runs: %4d simulated, %4d cached, %4d disk, %4d peer, %4d joined  (queue %.2fs, sim %.2fs, lease %.2fs)\n",
				nameWidth, name, s.Runs, s.Misses, s.Hits, s.DiskHits, s.PeerHits, s.Joins, s.QueueWait.Seconds(), s.SimWall.Seconds(), s.LeaseWait.Seconds())
		}
	} else if completed > 0 {
		fmt.Fprintf(w, "(interrupted after %d of %d experiments)\n", completed, len(names))
	}

	if *out != "" {
		if err := w.Close(); err != nil {
			logger.Error("cannot close output file", "path", *out, "err", err)
			os.Exit(1)
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			logger.Error("cannot create trace file", "path", *traceOut, "err", err)
			os.Exit(1)
		}
		if err := hub.Tracer().Write(f); err != nil {
			f.Close()
			logger.Error("trace export failed", "path", *traceOut, "err", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logger.Error("cannot close trace file", "path", *traceOut, "err", err)
			os.Exit(1)
		}
		logger.Info("orchestration trace written", "path", *traceOut,
			"spans", hub.Tracer().Len(), "viewer", "https://ui.perfetto.dev")
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

// storeLine renders the store's end-of-run condition for the trailer:
// mode, blob population, hit/quarantine counters, lease activity (leases
// won, and leaseWait, the scheduler's seconds spent waiting on peers'
// leases), and — loudly — degradation, so a sweep that silently fell
// back to memory-only operation is visible from the terminal.
func storeLine(ss store.Stats, leaseWait float64) string {
	line := fmt.Sprintf("store: %s; %d blobs, %d disk hits, %d quarantined", ss.Mode, ss.DiskBlobs, ss.DiskHits, ss.Quarantined)
	if ss.LeasesAcquired > 0 || leaseWait > 0 {
		line += fmt.Sprintf(", leases %d won, %.2fs waiting on peers", ss.LeasesAcquired, leaseWait)
	}
	if ss.Degraded {
		line += "; DEGRADED: " + ss.Reason
	}
	return line
}
