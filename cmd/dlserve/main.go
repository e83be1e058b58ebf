// Command dlserve runs the sweepd experiment service: a long-running
// HTTP server that accepts sweep jobs (grids or spec lists), executes
// them on a bounded worker pool over the shared persistent result
// cache, streams live per-outcome progress, and drains gracefully on
// SIGTERM — in-flight specs finish and persist, unfinished jobs are
// marked resumable, and resubmitting them is served from the cache.
//
// Usage:
//
//	dlserve -addr :8080 -cache ~/.cache/dramlat/sweep -workers 8
//	dlsweep -server http://localhost:8080 -bench bfs -sched gmc,wg-w
//
// The API lives under /api/v1 (see internal/sweepd). The matching Go
// client is internal/sweepd/client.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dramlat"
	"dramlat/internal/metrics"
	"dramlat/internal/sweep"
	"dramlat/internal/sweepd"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlserve:", err)
	os.Exit(1)
}

// withPprof mounts the net/http/pprof handlers explicitly — never via
// DefaultServeMux, so nothing is exposed unless -pprof is set.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

func defaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return d + "/dramlat/sweep"
	}
	return ".dramlat-sweep"
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheDir := flag.String("cache", defaultCacheDir(), "persistent result cache dir")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "simulation engine: event (default) or dense — both exact, so cache entries are shared (sampled is rejected: submit sampled specs instead)")
	runTimeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for in-flight specs on shutdown before aborting them")
	traceEvents := flag.Bool("trace-events", false, "capture per-spec telemetry for every executed spec, not just jobs that request it")
	traceCap := flag.Int("trace-cap", 0, "cap on captured events per run (0 = unlimited)")
	sampleEvery := flag.Int64("sample-every", 0, "interval-sample cadence in ticks for captured telemetry (0 = default)")
	fleetOnly := flag.Bool("fleet-only", false, "run no local simulations; every spec waits for a remote dlwork worker to claim it")
	leaseTTL := flag.Duration("lease-ttl", 0, "fleet lease duration before a silent worker is presumed dead (0 = 30s)")
	leaseAttempts := flag.Int("lease-attempts", 0, "expired leases per spec before it is quarantined (0 = 3)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling endpoints under /debug/pprof/")
	adminAddr := flag.String("admin", "", "separate listen address for /metrics, /healthz and (with -pprof) /debug/pprof; empty serves them on -addr")
	verbose := flag.Bool("v", false, "log every finished spec, not just job lifecycle")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cache, err := sweep.OpenCache(*cacheDir)
	if err != nil {
		fail(err)
	}
	eng := &sweep.Engine{
		Workers: *workers, Cache: cache, RunTimeout: *runTimeout,
		// Artifact capture is always available: jobs opt in per submit,
		// and -trace-events turns it on for every executed spec.
		TelemetryDir: filepath.Join(cache.Dir(), "artifacts"),
	}
	if *traceEvents {
		eng.Telemetry = dramlat.TelemetryOptions{
			Events: true, EventCap: *traceCap, SampleEvery: *sampleEvery,
		}
	}
	if *engine == "sampled" {
		// Mutate runs after the cache is keyed on the submitted spec, so
		// forcing the sampled engine here would store approximate Results
		// under exact specs' hashes — permanent cache poisoning. Sampled
		// runs must be requested per spec (the hash-included Sampled
		// block), never as a server-wide override.
		fail(fmt.Errorf("-engine sampled is not a valid server-wide engine: sampled results are approximate and would be cached under exact spec hashes; submit specs with a Sampled block instead"))
	}
	if *engine != "" {
		// Engine selection is a server-side execution detail: Engine is
		// hash-excluded (the exact engines' results are identical), so it
		// never arrives over the wire. Mutate rewrites it just before
		// execution while keeping the engine's own runner — and with it
		// telemetry capture — intact.
		eng.Mutate = func(sp *dramlat.RunSpec) {
			sp.Engine = *engine
		}
	}

	opts := sweepd.Options{LeaseTTL: *leaseTTL, LeaseAttempts: *leaseAttempts}
	if *fleetOnly {
		opts.LocalWorkers = -1
	}
	srv := sweepd.NewWithOptions(eng, logger, metrics.Default, opts)
	handler := srv.Handler()
	if *pprofOn && *adminAddr == "" {
		handler = withPprof(handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	// The optional admin listener isolates operational surface (scrapes,
	// probes, profiles) from the job API, e.g. to firewall them apart.
	var adminSrv *http.Server
	if *adminAddr != "" {
		admin := http.NewServeMux()
		admin.Handle("GET /metrics", srv.MetricsHandler())
		admin.HandleFunc("GET /healthz", srv.HealthzHandler)
		var ah http.Handler = admin
		if *pprofOn {
			ah = withPprof(admin)
		}
		adminSrv = &http.Server{Addr: *adminAddr, Handler: ah}
		go func() {
			logger.Info("admin listening", "addr", *adminAddr, "pprof", *pprofOn)
			if err := adminSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fail(err)
			}
		}()
	}

	// SIGTERM/SIGINT: stop accepting connections, drain the queue
	// (in-flight specs finish and persist; unfinished jobs are marked
	// resumable), then exit. A second signal kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		logger.Info("shutdown signal received, draining")
		drained := make(chan struct{})
		go func() { srv.Drain(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(*drainTimeout):
			logger.Warn("drain timeout, aborting in-flight specs")
			srv.Close()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(sctx)
		if adminSrv != nil {
			adminSrv.Shutdown(sctx)
		}
		logger.Info("sweepd down")
	}()

	logger.Info("listening", "addr", *addr, "cache", cache.Dir())
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	<-done
}
