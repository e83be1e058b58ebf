// Command dlsim runs one (benchmark, scheduler) simulation and prints the
// run digest.
//
// Usage:
//
//	dlsim -bench bfs -sched wg-w [-scale 0.5] [-sms 30] [-warps 32]
//	      [-perfect] [-zerodiv] [-alpha 0.5] [-seed 1]
//	      [-ablation A] [-json] [-list]
//
// It always runs the exact engine; the sampled engine is reachable only
// through RunSpec.Sampled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dramlat"
)

func main() {
	bench := flag.String("bench", "bfs", "benchmark name (see -list)")
	sched := flag.String("sched", "gmc", "scheduler: "+strings.Join(dramlat.Schedulers(), "|"))
	scale := flag.Float64("scale", 1.0, "work scale factor")
	sms := flag.Int("sms", 0, "override SM count (0 = Table II: 30)")
	warps := flag.Int("warps", 0, "override warps per SM (0 = Table II: 32)")
	seed := flag.Int64("seed", 1, "workload seed")
	alpha := flag.Float64("alpha", 0.5, "SBWAS alpha (0.25/0.5/0.75)")
	perfect := flag.Bool("perfect", false, "ideal: perfect coalescing (Fig 4)")
	zerodiv := flag.Bool("zerodiv", false, "ideal: zero latency divergence (Fig 4)")
	ablation := flag.String("ablation", "", "warp-aware ablation: count-score|no-orphan|no-credits")
	jsonOut := flag.Bool("json", false, "emit the full Results struct as JSON")
	list := flag.Bool("list", false, "list benchmarks and exit")
	flag.Parse()

	if *list {
		for _, b := range dramlat.Benchmarks() {
			kind := "regular"
			if b.Irregular {
				kind = "irregular"
			}
			fmt.Printf("%-14s %-12s %-9s %s\n", b.Name, b.Suite, kind, b.Desc)
		}
		return
	}

	spec := dramlat.RunSpec{
		Benchmark: *bench, Scheduler: *sched, Scale: *scale,
		SMs: *sms, WarpsPerSM: *warps, Seed: *seed,
		PerfectCoalescing: *perfect, ZeroDivergence: *zerodiv,
		SBWASAlpha: *alpha, Ablation: *ablation,
	}
	res, err := dramlat.Run(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlsim:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "dlsim:", err)
			os.Exit(1)
		}
		return
	}
	s := res.Summary
	fmt.Printf("benchmark            %s\n", res.Workload)
	fmt.Printf("scheduler            %s\n", res.Scheduler)
	fmt.Printf("kernel ticks         %d (%.1f us)\n", res.Ticks, float64(res.Ticks)*0.667e-3)
	fmt.Printf("instructions         %d\n", res.Instr)
	fmt.Printf("IPC                  %.3f\n", res.IPC)
	fmt.Printf("SM idle (all stall)  %.1f%%\n", res.SMIdleFrac*100)
	fmt.Printf("loads                %d (%.2f reqs/load, %.0f%% multi-request)\n",
		s.Loads, s.ReqsPerLoad, s.MultiReqFrac*100)
	fmt.Printf("MCs touched/warp     %.2f\n", s.AvgMCsTouched)
	fmt.Printf("effective latency    %.0f ticks (%.0f ns)\n", s.EffectiveLatency, s.EffectiveLatency*0.667)
	fmt.Printf("divergence gap       %.0f ticks (p50 %.0f, p90 %.0f, p99 %.0f)\n",
		s.DivergenceGap, res.GapP50, res.GapP90, res.GapP99)
	fmt.Printf("last/first latency   %.2fx\n", s.LastOverFirst)
	fmt.Printf("DRAM utilization     %.1f%%\n", res.Utilization*100)
	fmt.Printf("row hit rate         %.1f%%\n", res.RowHitRate*100)
	fmt.Printf("L1 / L2 hit rate     %.1f%% / %.1f%%\n", res.L1HitRate*100, res.L2HitRate*100)
	fmt.Printf("write fraction       %.1f%%\n", res.WriteFrac*100)
	fmt.Printf("write drains         %d\n", res.DrainsStarted)
	fmt.Printf("warp-aware detail    selected=%d coordSent=%d coordApplied=%d soleBlocker=%d merbFill=%d unitRush=%d\n",
		res.GroupsSelected, res.CoordMessages, res.CoordApplied, res.CoordSoleBlocker, res.MERBFillers, res.UnitRush)
	pw := dramlat.EstimatePower(res)
	fmt.Printf("GDDR5 power          %.0f mW (bg %.0f, act %.0f, rd %.0f, wr %.0f)\n",
		pw.TotalMW, pw.BackgroundMW, pw.ActPreMW, pw.ReadMW, pw.WriteMW)
}
