package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"dramlat"
)

// Outcome is the result of one spec in a sweep.
type Outcome struct {
	Spec    dramlat.RunSpec
	Hash    string
	Results dramlat.Results
	Err     error
	Cached  bool          // served from the persistent cache
	Elapsed time.Duration // zero for cached outcomes
}

// Event is one progress notification; Done counts both cached and
// executed specs. Events are delivered serially from the engine.
type Event struct {
	Done, Total      int
	Executed, Cached int
	Failed           int
	Outcome          Outcome
	ETA              time.Duration // crude: mean executed cost × remaining
}

// Engine runs specs concurrently. The zero Engine is usable: GOMAXPROCS
// workers, no cache, dramlat.Run as the runner, no progress reporting.
type Engine struct {
	// Workers caps concurrent simulations; <=0 means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, is consulted before running and updated
	// after every successful run.
	Cache *Cache
	// Runner executes one spec; nil means dramlat.Run. Tests and
	// tools can substitute stubs or instrumented runners, and
	// TraceRunner captures telemetry artifacts.
	Runner func(dramlat.RunSpec) (dramlat.Results, error)
	// Progress, when non-nil, receives one Event per finished spec,
	// never concurrently.
	Progress func(Event)
	// RunTimeout, when positive, gives every executed spec a wall-clock
	// deadline (spec.Deadline = now + RunTimeout, unless the spec already
	// carries one). A run that exceeds it aborts with a
	// *dramlat.StallError outcome — aggregated like any other failure,
	// never cached, so the next sweep retries it.
	RunTimeout time.Duration
}

// Report aggregates a finished sweep.
type Report struct {
	Outcomes []Outcome // one per input spec, in input order
	Executed int       // specs actually simulated
	Cached   int       // specs served from the cache
	Failed   int       // specs whose runner returned an error
	Elapsed  time.Duration
}

// Err joins every failure into one error, or returns nil if all specs
// succeeded.
func (r *Report) Err() error {
	var errs []error
	for _, o := range r.Outcomes {
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("%s/%s seed %d: %w",
				o.Spec.Benchmark, o.Spec.Scheduler, o.Spec.Seed, o.Err))
		}
	}
	return errors.Join(errs...)
}

// Failures returns the failed outcomes.
func (r *Report) Failures() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (e *Engine) runner() func(dramlat.RunSpec) (dramlat.Results, error) {
	if e.Runner != nil {
		return e.Runner
	}
	return dramlat.Run
}

// prepare arms one spec for execution under ctx: in-flight simulations
// observe cancellation through their Stop channel (at watchdog cadence,
// so a Ctrl-C drains in milliseconds of sim work, not whole runs), and
// RunTimeout becomes a per-run wall-clock deadline. The returned copy
// hashes identically to the input — Stop and Deadline are hash-excluded
// — so cache keys are unaffected.
func (e *Engine) prepare(ctx context.Context, spec dramlat.RunSpec) dramlat.RunSpec {
	if spec.Stop == nil {
		spec.Stop = ctx.Done()
	}
	if e.RunTimeout > 0 && spec.Deadline.IsZero() {
		spec.Deadline = time.Now().Add(e.RunTimeout)
	}
	return spec
}

// Run executes every spec and returns the aggregated report. One failed
// spec never aborts the sweep — it is recorded and the rest continue.
// Specs with equal content hashes are executed once and share the result,
// and results are byte-identical to serial execution regardless of the
// worker count (each simulation is self-contained and seeded).
func (e *Engine) Run(specs []dramlat.RunSpec) *Report {
	return e.RunContext(context.Background(), specs)
}

// RunContext is Run under a context: cancelling ctx stops accepting new
// work, aborts in-flight simulations at their next watchdog check, and
// still returns the full report — completed outcomes keep their results
// (already persisted to the cache), unstarted and aborted specs carry
// ctx.Err()-flavored failures. A cancelled sweep is therefore resumable:
// re-running it serves the finished prefix from the cache.
func (e *Engine) RunContext(ctx context.Context, specs []dramlat.RunSpec) *Report {
	start := time.Now()
	rep := &Report{Outcomes: make([]Outcome, len(specs))}
	if len(specs) == 0 {
		return rep
	}

	// Deduplicate by canonical hash: the first index with a given hash
	// becomes the "leader" that actually runs.
	leaders := make([]int, 0, len(specs))
	followers := map[int][]int{} // leader index -> duplicate indices
	byHash := map[string]int{}
	for i, s := range specs {
		h := s.Hash()
		rep.Outcomes[i].Spec = s
		rep.Outcomes[i].Hash = h
		if j, ok := byHash[h]; ok {
			followers[j] = append(followers[j], i)
			continue
		}
		byHash[h] = i
		leaders = append(leaders, i)
	}

	jobs := make(chan int)
	var wg sync.WaitGroup

	// mu guards the progress counters and serializes Progress calls.
	var mu sync.Mutex
	done, executed, cached, failed := 0, 0, 0, 0
	var execTime time.Duration

	finish := func(i int, o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		rep.Outcomes[i].Results = o.Results
		rep.Outcomes[i].Err = o.Err
		rep.Outcomes[i].Cached = o.Cached
		rep.Outcomes[i].Elapsed = o.Elapsed
		dups := followers[i]
		for _, j := range dups {
			rep.Outcomes[j].Results = o.Results
			rep.Outcomes[j].Err = o.Err
			// Duplicates of a successful leader are effectively
			// cache hits served by the leader's run.
			rep.Outcomes[j].Cached = o.Err == nil
		}
		n := 1 + len(dups)
		done += n
		if o.Err != nil {
			failed += n
		}
		if o.Cached {
			cached += n
		} else {
			executed++
			execTime += o.Elapsed
			if o.Err == nil {
				cached += n - 1
			}
		}
		if e.Progress != nil {
			// Crude ETA: mean executed cost times remaining specs,
			// divided across the pool. Cached specs skew it low,
			// which is the right direction for a resumed sweep.
			var eta time.Duration
			if executed > 0 {
				perSpec := execTime / time.Duration(executed)
				eta = perSpec * time.Duration(len(specs)-done) / time.Duration(e.workers())
			}
			e.Progress(Event{
				Done: done, Total: len(specs),
				Executed: executed, Cached: cached, Failed: failed,
				Outcome: rep.Outcomes[i], ETA: eta,
			})
		}
	}

	for w := 0; w < e.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Fast-fail once cancelled: drain the queue without
				// touching cache or simulator so the sweep unwinds
				// promptly and every spec still gets an outcome.
				if err := ctx.Err(); err != nil {
					finish(i, Outcome{Err: err})
					continue
				}
				spec := rep.Outcomes[i].Spec
				if res, ok := e.Cache.Get(spec); ok {
					finish(i, Outcome{Results: res, Cached: true})
					continue
				}
				t0 := time.Now()
				res, err := e.runner()(e.prepare(ctx, spec))
				o := Outcome{Results: res, Err: err, Elapsed: time.Since(t0)}
				if err == nil {
					if cerr := e.Cache.Put(spec, res); cerr != nil {
						o.Err = cerr
					}
				}
				finish(i, o)
			}
		}()
	}
	for _, i := range leaders {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	rep.Executed, rep.Cached, rep.Failed = executed, cached, failed
	rep.Elapsed = time.Since(start)
	return rep
}
