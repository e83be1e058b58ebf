// Command dlwork is a fleet worker for the sweepd experiment service:
// it connects to a dlserve instance, claims queued specs under
// time-bounded leases, simulates them locally, and returns typed
// outcomes — scaling a sweep horizontally across machines without any
// scheduler beyond the server's own queue.
//
// Usage:
//
//	dlserve -addr :8080 -fleet-only
//	dlwork -server http://host:8080 -workers 8 &   # on each machine
//	dlsweep -server http://host:8080 -bench bfs -sched gmc,wg-w
//
// Fault model: a dlwork that dies mid-spec (crash, OOM, SIGKILL,
// partition) just stops heartbeating; the server re-queues its specs
// after the lease TTL and another worker picks them up. Reports stay
// byte-identical to local execution. dlwork exits 0 of its own accord
// when the server begins draining, and on SIGINT/SIGTERM finishes the
// specs it holds before exiting (a second signal kills it).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"dramlat"
	"dramlat/internal/sweep"
	"dramlat/internal/sweepd/client"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlwork:", err)
	os.Exit(1)
}

func defaultCacheDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return d + "/dramlat/sweep"
	}
	return ".dramlat-sweep"
}

func main() {
	server := flag.String("server", "http://localhost:8080", "dlserve base URL")
	name := flag.String("name", "", "worker name reported to the server (default host-pid)")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", defaultCacheDir(), "local result cache dir (private to this worker unless shared storage)")
	engine := flag.String("engine", "", "simulation engine: event (default) or dense (sampled is rejected: the server's spec hashes must keep exact results)")
	runTimeout := flag.Duration("timeout", 0, "per-run wall-clock budget (0 = none)")
	poll := flag.Duration("poll", 15*time.Second, "claim long-poll window")
	verbose := flag.Bool("v", false, "log every claim and outcome, not just lifecycle")
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
	eng := &sweep.Engine{Workers: 1, Cache: cache, RunTimeout: *runTimeout}
	if *engine == "sampled" {
		// Mutate runs after the claimed spec's hash fixed the cache key:
		// a sampled override would complete approximate Results under
		// exact hashes, poisoning both the local and the server cache.
		fail(fmt.Errorf("-engine sampled is not a valid worker-wide engine: sampled runs are requested per spec via the Sampled block"))
	}
	if *engine != "" {
		eng.Mutate = func(sp *dramlat.RunSpec) {
			sp.Engine = *engine
		}
	}

	n := *workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	w := &client.Worker{
		Remote:      &client.Remote{BaseURL: *server},
		Eng:         eng,
		Name:        *name,
		Concurrency: n,
		Poll:        *poll,
		Logger:      logger,
	}

	// First signal: stop claiming, finish held specs, exit. Second
	// signal: die immediately (the server re-queues our leases — that
	// is exactly the fault the fleet is built to absorb).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		logger.Info("shutdown signal received; finishing held specs (signal again to abort)")
		cancel()
		<-sigs
		os.Exit(1)
	}()

	if err := w.Run(ctx); err != nil {
		fail(err)
	}
}
