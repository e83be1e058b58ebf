// Quickstart: run one irregular benchmark under the baseline GMC scheduler
// and under the paper's full warp-aware policy (WG-W), and print the
// speedup and the latency-divergence numbers behind it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dramlat"
)

func main() {
	// The full Table II machine (30 SMs x 32 warps) with reduced
	// per-warp work keeps the example under a few seconds while
	// preserving the memory-system contention that causes divergence.
	base := dramlat.RunSpec{
		Benchmark: "spmv",
		Scale:     0.3,
	}

	fmt.Println("running spmv under the throughput-optimized GMC baseline...")
	gmcSpec := base
	gmcSpec.Scheduler = "gmc"
	gmc, err := dramlat.Run(gmcSpec)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running spmv under warp-aware scheduling (WG-W)...")
	wgSpec := base
	wgSpec.Scheduler = "wg-w"
	wgw, err := dramlat.Run(wgSpec)
	if err != nil {
		log.Fatal(err)
	}

	speedup := float64(gmc.Ticks) / float64(wgw.Ticks)
	fmt.Println()
	fmt.Printf("%-28s %12s %12s\n", "", "gmc", "wg-w")
	fmt.Printf("%-28s %12d %12d\n", "kernel ticks", gmc.Ticks, wgw.Ticks)
	fmt.Printf("%-28s %12.3f %12.3f\n", "IPC", gmc.IPC, wgw.IPC)
	fmt.Printf("%-28s %11.0f%% %11.0f%%\n", "DRAM bandwidth utilization",
		gmc.Utilization*100, wgw.Utilization*100)
	fmt.Printf("%-28s %12.0f %12.0f\n", "effective mem latency (ticks)",
		gmc.Summary.EffectiveLatency, wgw.Summary.EffectiveLatency)
	fmt.Printf("%-28s %12.0f %12.0f\n", "divergence gap (ticks)",
		gmc.Summary.DivergenceGap, wgw.Summary.DivergenceGap)
	fmt.Println()
	fmt.Printf("warp-aware speedup over GMC: %.2fx\n", speedup)
	fmt.Println("(go run ./cmd/dlbench -exp fig8 sets the suite geomean beside the paper's)")
}
