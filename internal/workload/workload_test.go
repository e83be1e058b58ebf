package workload

import (
	"testing"

	"dramlat/internal/gpu"
	"dramlat/internal/sm"
)

func testParams() Params {
	return Params{NumSMs: 4, WarpsPerSM: 4, WarpSize: 32, Scale: 0.3, Seed: 1}
}

func testConfig() gpu.Config {
	cfg := gpu.DefaultConfig()
	cfg.NumSMs = 4
	cfg.WarpsPerSM = 4
	cfg.Scheduler = "gmc"
	cfg.MaxTicks = 8_000_000
	// The small test machine touches a far smaller footprint than the
	// full 30-SM runs; shrink the L2 proportionally so dirty write-backs
	// still reach DRAM (write-intensity characterization).
	cfg.L2SliceSize = 16 << 10
	return cfg
}

func TestRegistry(t *testing.T) {
	if len(Irregular()) != 11 {
		t.Fatalf("%d irregular benchmarks, want 11 (Table III)", len(Irregular()))
	}
	if len(Regular()) != 6 {
		t.Fatalf("%d regular benchmarks, want 6 (Section VI-A)", len(Regular()))
	}
	seen := map[string]bool{}
	for _, b := range All() {
		if seen[b.Name] {
			t.Fatalf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		got, err := ByName(b.Name)
		if err != nil || got.Name != b.Name {
			t.Fatalf("ByName(%q): %v", b.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestWarpShapeMatchesParams(t *testing.T) {
	p := testParams()
	for _, b := range All() {
		w := b.Build(p)
		if len(w.Programs) != p.NumSMs {
			t.Fatalf("%s: %d SMs", b.Name, len(w.Programs))
		}
		for s := range w.Programs {
			if len(w.Programs[s]) != p.WarpsPerSM {
				t.Fatalf("%s: %d warps on SM %d", b.Name, len(w.Programs[s]), s)
			}
			for wi, prog := range w.Programs[s] {
				if len(prog) == 0 {
					t.Fatalf("%s: empty program sm%d w%d", b.Name, s, wi)
				}
				for _, in := range prog {
					if in.Kind != sm.Compute && len(in.Addrs) == 0 {
						t.Fatalf("%s: memory insn with no addresses", b.Name)
					}
					if len(in.Addrs) > p.WarpSize {
						t.Fatalf("%s: %d addresses > warp size", b.Name, len(in.Addrs))
					}
				}
			}
		}
	}
}

// Every benchmark must run to completion under the baseline, and its
// measured characterization must match the paper's grouping.
func TestCharacterization(t *testing.T) {
	if testing.Short() {
		t.Skip("full characterization run")
	}
	type row struct {
		reqsPerLoad float64
		multiFrac   float64
		mcs         float64
		writeFrac   float64
	}
	rows := map[string]row{}
	for _, b := range All() {
		cfg := testConfig()
		sys, err := gpu.NewSystem(cfg, b.Build(testParams()))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%s: did not complete", b.Name)
		}
		sum := res.Summary
		rows[b.Name] = row{sum.ReqsPerLoad, sum.MultiReqFrac, sum.AvgMCsTouched, res.WriteFrac}
	}

	// Irregular applications produce >1 request per load on average and a
	// majority-ish of multi-request loads (Fig 2).
	var irrReqs, irrMulti float64
	for _, b := range Irregular() {
		r := rows[b.Name]
		if r.reqsPerLoad <= 1.2 {
			t.Errorf("%s: reqs/load %.2f too coalesced for an irregular app", b.Name, r.reqsPerLoad)
		}
		irrReqs += r.reqsPerLoad
		irrMulti += r.multiFrac
	}
	irrReqs /= float64(len(Irregular()))
	irrMulti /= float64(len(Irregular()))
	if irrReqs < 3 || irrReqs > 10 {
		t.Errorf("irregular suite avg reqs/load %.2f, paper reports 5.9", irrReqs)
	}
	if irrMulti < 0.35 {
		t.Errorf("irregular suite multi-request fraction %.2f, paper reports 0.56", irrMulti)
	}

	// Regular applications coalesce to ~1 request per load.
	for _, b := range Regular() {
		r := rows[b.Name]
		if r.reqsPerLoad > 1.3 {
			t.Errorf("%s: reqs/load %.2f too divergent for a regular app", b.Name, r.reqsPerLoad)
		}
	}

	// Fig 3 grouping: the wide-spread apps touch more controllers than
	// the clustered ones.
	wide := (rows["cfd"].mcs + rows["spmv"].mcs + rows["sssp"].mcs + rows["sp"].mcs) / 4
	narrow := (rows["sad"].mcs + rows["nw"].mcs + rows["SS"].mcs + rows["bfs"].mcs) / 4
	if wide <= narrow {
		t.Errorf("controller spread inverted: wide=%.2f narrow=%.2f", wide, narrow)
	}
	if wide < 2.4 {
		t.Errorf("wide group touches %.2f MCs, paper reports ~3.2", wide)
	}
	if narrow > 2.6 {
		t.Errorf("narrow group touches %.2f MCs, paper reports < 2", narrow)
	}

	// Fig 12 grouping: nw, SS and sad are write intensive relative to the
	// graph workloads.
	writeHeavy := (rows["nw"].writeFrac + rows["SS"].writeFrac + rows["sad"].writeFrac) / 3
	writeLight := (rows["bfs"].writeFrac + rows["sp"].writeFrac + rows["sssp"].writeFrac) / 3
	if writeHeavy <= writeLight {
		t.Errorf("write intensity inverted: heavy=%.2f light=%.2f", writeHeavy, writeLight)
	}
}

// Every generator must also complete under the full warp-aware scheduler
// (exercises group tagging, credits, MERB and write-aware paths against
// real workload shapes).
func TestAllBenchmarksUnderWGW(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, b := range All() {
		cfg := testConfig()
		cfg.Scheduler = "wg-w"
		sys, err := gpu.NewSystem(cfg, b.Build(testParams()))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%s: stuck under wg-w: %v", b.Name, err)
		}
		if sys.Col.Outstanding() != 0 {
			t.Fatalf("%s: %d groups unfinished", b.Name, sys.Col.Outstanding())
		}
	}
}
