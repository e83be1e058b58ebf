package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json, read from the working
// directory, that the harness needs: the measurement budget and the
// end-to-end metrics with their regression bounds. The file is the single
// source of both.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkFile() (*benchmarkFile, error) {
	const path = "BENCHMARK.json"
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err == nil {
		var cur *report
		if cur, err = readReport(newPath); err == nil {
			var worse bool
			if worse, err = compareReports(w, old, cur); err == nil && worse {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// verdict classifies one end-to-end metric's change from old to cur. It
// compares the reported values, the statistic the bound was set on (the
// fastest pass for wall_s and sim_ticks_per_s), not the samples' medians.
// A change beyond the bound is better or worse; within it, same. The
// samples only gate the comparison: when either side's pass-to-pass
// spread exceeds the bound the change cannot be told from noise, and it
// is unresolved unless every new sample beats every old one.
func verdict(old, cur value, better string, bound float64) (change float64, v string) {
	if old.Value == 0 {
		return 0, "unresolved"
	}
	change = (cur.Value - old.Value) / old.Value
	worse := change
	if better == "higher" {
		worse = -change
	}
	samples := func(x value) []float64 {
		if len(x.Samples) > 0 {
			return x.Samples
		}
		return []float64{x.Value}
	}
	ol, cl := samples(old), samples(cur)
	if max(spread(ol), spread(cl)) > bound {
		for _, c := range cl {
			for _, o := range ol {
				if (better == "lower" && c >= o) || (better == "higher" && c <= o) {
					return change, "unresolved"
				}
			}
		}
		return change, "better"
	}
	switch {
	case worse > bound:
		return change, "worse"
	case worse < -bound:
		return change, "better"
	}
	return change, "same"
}

// compareReports prints one row per (workload, end-to-end metric) with
// its verdict, and whether each workload's simulated Results changed. It
// reports whether any metric got worse.
func compareReports(w io.Writer, old, cur *report) (bool, error) {
	spec, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	if old.HostCores != cur.HostCores {
		fmt.Fprintf(w, "note: host_cores differ (%d vs %d)\n", old.HostCores, cur.HostCores)
	}
	olds := map[string]*result{}
	for _, r := range old.Workloads {
		olds[r.Workload] = r
	}
	anyWorse := false
	fmt.Fprintf(w, "%-13s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "baseline", "current", "change", "bound", "verdict")
	for _, r := range cur.Workloads {
		o, ok := olds[r.Workload]
		if !ok {
			fmt.Fprintf(w, "%-13s not in the baseline\n", r.Workload)
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, ok1 := o.Metrics[m.Name]
			cv, ok2 := r.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue // a traced report holds per-layer metrics only
			}
			change, v := verdict(ov, cv, m.Better, m.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-13s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				r.Workload, m.Name, ov.Value, cv.Value, 100*change, 100*m.Bound, v)
		}
		same := "same"
		if o.ResultsSHA256 != r.ResultsSHA256 {
			same = "DIFFERENT (seeds or simulation changed)"
		}
		fmt.Fprintf(w, "%-13s results_sha256 %s\n", r.Workload, same)
	}
	return anyWorse, nil
}
