// Command carfserve is the long-running simulation service: an
// HTTP/JSON daemon that accepts kernel simulations and paper
// experiments, runs them through the process-global scheduler, and
// persists completed results in an on-disk store so warm cache hits
// survive restarts. The scheduler's memo, bounded by -mem-cache, is the
// one in-memory result cache; runs it evicts come back from the store.
//
// Endpoints (see EXPERIMENTS.md for the full schema):
//
//	POST   /api/v1/runs             submit {"experiment": ...} or {"kernel": ...} -> run id
//	GET    /api/v1/runs             list submitted runs
//	GET    /api/v1/runs/{id}        poll one run's status, provenance, live progress
//	GET    /api/v1/runs/{id}/stream follow one run's progress frames (SSE, ends with a done frame)
//	GET    /api/v1/runs/{id}/result fetch the rendered output
//	DELETE /api/v1/runs/{id}        cancel a run
//	/metrics /runs /events /healthz the live telemetry plane (carftop renders /runs)
//
// Robustness posture: per-client and global admission bounds shed
// overload with 429 + Retry-After; every run carries a deadline and
// cancels cooperatively; SIGINT/SIGTERM drains — in-flight runs
// finish, the store flushes, then the process exits 0. If the store
// directory is unusable the daemon degrades to memory-only caching,
// says so in the log and /healthz, and keeps serving.
//
// Usage:
//
//	carfserve -addr :8080 -store /var/lib/carf
//	carfserve -addr 127.0.0.1:0 -store ./results -job-timeout 5m
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"carf/internal/experiments"
	"carf/internal/sched"
	"carf/internal/serve"
	"carf/internal/store"
	"carf/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
		storeDir     = flag.String("store", "", "persistent result store directory (empty = memory-only caching)")
		workers      = flag.Int("workers", 0, "simulation worker pool bound (0 = GOMAXPROCS)")
		memCache     = flag.Int("mem-cache", 256, "completed runs held in the scheduler's in-memory memo; evicted runs return from -store as disk hits (<= 0 = unbounded)")
		maxJobs      = flag.Int("max-jobs", 16, "admitted-but-unfinished jobs across all clients before 429")
		maxPerClient = flag.Int("max-jobs-per-client", 4, "unfinished jobs per client before 429")
		runningJobs  = flag.Int("running-jobs", 2, "jobs executing concurrently (sims inside a job share the worker pool)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "wall-time bound per job; expiry cancels it cooperatively")
		drainWait    = flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGINT/SIGTERM drain waits for in-flight jobs before canceling them")
	)
	flag.Parse()
	logger := telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	slog.SetDefault(logger)

	if *workers > 0 {
		sched.Global().SetWorkers(*workers)
	}
	sched.Global().SetCacheCap(*memCache)

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(store.Options{Dir: *storeDir, Schema: experiments.StoreSchema, Logger: logger})
		if err != nil {
			logger.Error("store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		s := st.Stats()
		logger.Info("store open", "mode", s.Mode, "dir", s.Dir, "blobs", s.DiskBlobs, "degraded", s.Degraded)
	} else {
		logger.Warn("no -store directory: results will not survive restarts")
	}

	d := serve.New(serve.Options{
		Scheduler:        sched.Global(),
		Store:            st,
		MaxJobs:          *maxJobs,
		MaxJobsPerClient: *maxPerClient,
		RunningJobs:      *runningJobs,
		JobTimeout:       *jobTimeout,
		Logger:           logger,
	})
	bound, err := d.Start(*addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	logger.Info("carfserve listening", "addr", bound,
		"api", "/api/v1/runs", "telemetry", "/metrics /runs /events /healthz")

	// Graceful drain on SIGINT/SIGTERM: stop admitting, finish in-flight
	// jobs (up to -drain-timeout, then cancel them cooperatively), flush
	// the store, exit 0. A second signal aborts immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // restore default handling: a second signal kills the process
	logger.Info("signal received, draining", "timeout", *drainWait)

	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := d.Shutdown(dctx); err != nil {
		logger.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	logger.Info("carfserve exited cleanly")
}
