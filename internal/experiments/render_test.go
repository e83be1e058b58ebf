package experiments

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"dramlat"
	"dramlat/internal/dram"
	"dramlat/internal/stats"
)

// synthetic returns Results that are a fixed function of a spec hash, with
// every field a table reads non-zero, so the render golden pins each cell's
// arithmetic and format without running a simulation.
func synthetic(hash string) dramlat.Results {
	b := func(i int) int64 { // byte i of the hash, 1..256
		v, _ := strconv.ParseUint(hash[2*i:2*i+2], 16, 8)
		return int64(v) + 1
	}
	f := func(i int) float64 { return float64(b(i)) / 257 }
	return dramlat.Results{
		Ticks: 50000 + b(0)*b(1),
		Summary: stats.Summary{
			Loads: 1000 + b(2), MultiReqFrac: f(3), ReqsPerLoad: 1 + 10*f(4),
			AvgMCsTouched: 1 + 5*f(5), DivergenceGap: 100 * float64(b(6)),
			LastOverFirst: 1 + 4*f(7), EffectiveLatency: 300 + 3*float64(b(8)),
			MemGroups: 500 + b(9),
		},
		DRAM: dram.Stats{
			ACTs: 1000 + b(10), PREs: 900 + b(11), RDBursts: 4000 + 10*b(12),
			WRBursts: 1000 + 10*b(13), HitTxns: 3000 + b(14), MissTxns: 1000 + b(15),
			ReadTxns: 3000 + b(16), WriteTxns: 1000 + b(17), BusyTicks: 20000 + 10*b(18),
		},
		Utilization: f(19), RowHitRate: f(20), WriteFrac: f(21), SMIdleFrac: f(22),
		L1HitRate: f(23), DrainStalledGroups: 300 + b(24), DrainStalledUnitOrOrphan: b(25),
	}
}

// syntheticTables builds every experiment's tables from synthetic results.
func syntheticTables(t *testing.T, r Runner) []*Table {
	t.Helper()
	results := map[string]dramlat.Results{}
	for _, sp := range r.Collect(All) {
		results[sp.Hash()] = synthetic(sp.Hash())
	}
	tables, err := r.Tables(All, results)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestRenderGolden pins the text of -exp all, -seeds 1 and 2, rendered from
// synthetic results, against testdata/render-seeds<N>.golden.
func TestRenderGolden(t *testing.T) {
	for _, seeds := range []int{1, 2} {
		tables := syntheticTables(t, Runner{Scale: 0.05, SMs: 2, Warps: 4, Seed: 1, Seeds: seeds})
		var got strings.Builder
		if err := Render(&got, tables); err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("testdata/render-seeds%d.golden", seeds)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("-seeds %d: rendered tables differ from %s:\n%s", seeds, path, got.String())
		}
	}
}

// TestTablesCarryTheirNumbers: each summary row is its label's function
// (GEOMEAN or MEAN) of the column above it, and each of the paper's values
// sits under the name of a column or row of its table.
func TestTablesCarryTheirNumbers(t *testing.T) {
	tables := syntheticTables(t, Runner{Scale: 0.05, SMs: 2, Warps: 4, Seed: 1, Seeds: 1})
	papers := 0
	for i, tab := range tables {
		name := All[i].Name
		if s := tab.Summary; s != nil {
			for j, v := range s.Values {
				if want := summaries[s.Label](tab.Column(j)); v != want && !math.IsNaN(v) {
					t.Errorf("%s: %s of %q is %v, want %v", name, s.Label, tab.Columns[j].Name, v, want)
				}
			}
		}
		names := map[string]bool{}
		for _, c := range tab.Columns {
			names[c.Name] = true
		}
		for _, row := range tab.Rows {
			names[row.Label] = true
		}
		for k := range tab.Paper {
			papers++
			if !names[k] && !(name == "power" && k == "hit-rate change") {
				t.Errorf("%s: paper value %q names no column or row", name, k)
			}
		}
	}
	if papers == 0 {
		t.Fatal("no table carries a paper value")
	}
}
