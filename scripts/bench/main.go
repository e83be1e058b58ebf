// Command bench is the reproduction benchmark: it runs five workloads
// that together exercise every layer of the simulator, checks that their
// outputs are correct, and prints every metric by name with its unit.
// Each workload runs in its own child process (this binary re-executed),
// one at a time. BENCHMARK.json at the repository root names the
// workloads and metrics and fixes the regression bounds; README.md in
// this directory explains them.
//
// Usage, from the repository root:
//
//	bash scripts/bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-o out.json] [-baseline old.json]
//	bash scripts/bench/run.sh -baseline old.json new.json
//
// BENCHMARK.json's command is run as run.sh --workload NAME --seed N
// --seconds S --trace 0|1, with S its run_seconds, which is also the
// budget when -seconds is not given. -trace 1 profiles alternate passes
// and reports per-layer metrics in place of the end-to-end ones.
// -baseline compares against an earlier -o report, or compares two
// reports without running anything.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
)

// report is the -o file: every workload's result with its per-pass
// samples, and the host it ran on.
type report struct {
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	HostCores int       `json:"host_cores"`
	GoVersion string    `json:"go_version"`
	Workloads []*result `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// cli is one invocation's command line.
type cli struct {
	opts
	name, out, baseline string
	child               bool
	reports             []string // positional: a report to compare with -baseline
}

// parseArgs reads the command line. Errors are reported on stderr, as the
// flag package reports its own.
func parseArgs(args []string) (*cli, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	usageError := func(msg string) (*cli, error) {
		fmt.Fprintln(fs.Output(), "bench:", msg)
		return nil, errors.New(msg)
	}
	c := &cli{}
	fs.StringVar(&c.name, "workload", "", "run only this workload (default: all)")
	fs.Int64Var(&c.Seed, "seed", 1, "input seed, passed to every RunSpec.Seed")
	fs.Float64Var(&c.Seconds, "seconds", 0, "measurement budget per workload, in seconds (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1: profile alternate passes and report per-layer metrics")
	fs.StringVar(&c.out, "o", "", "write the full report, with per-pass samples, to this file")
	fs.StringVar(&c.baseline, "baseline", "", "compare with this earlier -o report")
	fs.BoolVar(&c.child, "child", false, "run one workload in this process and print its result (internal)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *trace != 0 && *trace != 1 {
		return usageError("-trace must be 0 or 1")
	}
	c.Trace = *trace == 1
	c.reports = fs.Args()
	if len(c.reports) > 0 && (c.baseline == "" || len(c.reports) != 1) {
		return usageError("a report argument needs -baseline, and only one is allowed")
	}
	return c, nil
}

func run(args []string, stdout io.Writer) int {
	c, err := parseArgs(args)
	if err != nil {
		return 2
	}
	o := c.opts

	if c.child {
		res, err := measure(c.name, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	if len(c.reports) > 0 {
		return compareFiles(stdout, c.baseline, c.reports[0])
	}

	if o.Seconds <= 0 {
		spec, err := readBenchmarkFile()
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		o.Seconds = spec.RunSeconds
	}
	names := []string{c.name}
	if c.name == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := lookupWorkload(c.name); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rep := &report{Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		HostCores: runtime.NumCPU(), GoVersion: runtime.Version()}
	for _, n := range names {
		res := runChild(exe, n, o)
		printResult(stdout, res, o.Trace)
		rep.Workloads = append(rep.Workloads, res)
	}

	code := 0
	if c.out != "" {
		if err := writeReport(c.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if c.baseline != "" {
		old, err := readReport(c.baseline)
		if err == nil {
			var worse bool
			worse, err = compareReports(stdout, old, rep)
			if worse {
				code = 1
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	for _, r := range rep.Workloads {
		if !r.Correct {
			code = 1
		}
	}
	if err := printSummary(stdout, rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

// runChild measures one workload in a fresh process, so that each
// workload starts from an empty heap and max_rss_mb is its own. A child
// that dies or prints no result is reported as one failed operation.
func runChild(exe, name string, o opts) *result {
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(o.Seed, 10),
		"-seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[o.Trace])
	cmd.Stderr = os.Stderr
	// The child must not outlive this process if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	b, err := cmd.Output()
	var res result
	if err == nil {
		err = json.Unmarshal(b, &res)
	}
	if err != nil {
		failed := &result{Workload: name, Attempted: 1, Failed: 1,
			Checks: []check{checkOf("child process", err)}}
		return finishResult(failed, nil, nil, o.Trace)
	}
	return &res
}

func printResult(w io.Writer, r *result, traced bool) {
	verdict := "correct"
	if !r.Correct {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "== %s: %s, %d passes, %d/%d operations failed\n", r.Workload, verdict, r.Passes, r.Failed, r.Attempted)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-26s %14.6g %-6s", d.Name, v.Value, v.Unit)
		if len(v.Samples) > 1 {
			fmt.Fprintf(w, "  spread %.1f%% of %d", 100*spread(v.Samples), len(v.Samples))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  results_sha256 %s\n", r.ResultsSHA256)
	for _, c := range r.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s %s\n", status, c.Name, c.Detail)
	}
}

// printSummary writes the machine-readable last line: for one workload
// the result itself, for several the totals with each result by name.
func printSummary(w io.Writer, rep *report) error {
	type line struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics,omitempty"`
		Workloads map[string]*line `json:"workloads,omitempty"`
	}
	of := func(r *result) *line {
		m := map[string]value{}
		for k, v := range r.Metrics {
			m[k] = value{Value: v.Value, Unit: v.Unit}
		}
		return &line{r.Correct, r.Attempted, r.Failed, m, nil}
	}
	var l *line
	if len(rep.Workloads) == 1 {
		l = of(rep.Workloads[0])
	} else {
		l = &line{Correct: true, Workloads: map[string]*line{}}
		for _, r := range rep.Workloads {
			l.Correct = l.Correct && r.Correct
			l.Attempted += r.Attempted
			l.Failed += r.Failed
			l.Workloads[r.Workload] = of(r)
		}
	}
	return json.NewEncoder(w).Encode(l)
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}
