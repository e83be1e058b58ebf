// Package experiments defines the paper's tables and figures as data. An
// experiment is the one definition of the simulations its Table needs, and
// it is played twice: Collect records the specs it requests (each lookup
// returns zero Results, and no table's spec set depends on the results it
// reads), the caller runs them, and Tables builds the tables from the
// results. Render prints any table as text.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"dramlat"
)

// Experiment is one table or figure.
type Experiment struct {
	Name  string
	table func(*Runner) *Table
}

// All lists every experiment in the EXPERIMENTS.md order, which -exp all runs.
var All = []Experiment{
	{"table1", table1}, {"table2", table2}, {"table3", table3},
	{"fig2", fig2}, {"fig3", fig3}, {"fig4", fig4},
	{"fig8", fig8}, {"fig9", fig9}, {"fig10", fig10}, {"fig11", fig11}, {"fig12", fig12},
	{"regular", regular}, {"power", powerExp}, {"sbwas", sbwas}, {"wafcfs", wafcfs},
	{"util1bank", util1bank}, {"ablation", ablation}, {"cpusched", cpusched},
	{"extension", extension}, {"sensitivity", sensitivity}, {"motivation", motivation},
}

// Runner builds each table cell's spec under one machine geometry and
// seed, and looks its results up.
type Runner struct {
	Scale      float64
	SMs, Warps int
	Seed       int64
	Seeds      int // >1: average kernel times over this many seeds
	ablation   string
	lookup     func(dramlat.RunSpec) dramlat.Results
}

// play builds exps' tables from results, keyed by spec hash, and returns
// the specs they requested that results lacks, unique, in request order.
func (r Runner) play(exps []Experiment, results map[string]dramlat.Results) (tables []*Table, missing []dramlat.RunSpec) {
	seen := map[string]bool{}
	r.lookup = func(spec dramlat.RunSpec) dramlat.Results {
		h := spec.Hash()
		res, ok := results[h]
		if !ok && !seen[h] {
			seen[h] = true
			missing = append(missing, spec)
		}
		return res
	}
	for _, e := range exps {
		tables = append(tables, e.table(&r))
	}
	return tables, missing
}

// Collect returns every spec exps request, deduplicated by hash, in
// first-request order.
func (r Runner) Collect(exps []Experiment) []dramlat.RunSpec {
	_, specs := r.play(exps, nil)
	return specs
}

// Tables builds exps' tables from results, keyed by spec hash. A spec
// results lacks is an error naming it, and then no table comes back.
func (r Runner) Tables(exps []Experiment, results map[string]dramlat.Results) ([]*Table, error) {
	tables, missing := r.play(exps, results)
	if len(missing) == 0 {
		return tables, nil
	}
	errs := make([]error, len(missing))
	for i, sp := range missing {
		b, _ := sp.CanonicalJSON() // cannot fail: lookup already hashed it
		errs[i] = fmt.Errorf("no result for %s: the collect pass did not request it", b)
	}
	return nil, errors.Join(errs...)
}

// spec is one table cell's RunSpec under the runner's geometry, seed and ablation.
func (r *Runner) spec(bench, sched string, perfect, zerodiv bool, alpha float64) dramlat.RunSpec {
	return dramlat.RunSpec{Benchmark: bench, Scheduler: sched, Scale: r.Scale, SMs: r.SMs, WarpsPerSM: r.Warps, Seed: r.Seed,
		PerfectCoalescing: perfect, ZeroDivergence: zerodiv, SBWASAlpha: alpha, Ablation: r.ablation}
}

func (r *Runner) run(bench, sched string, perfect, zerodiv bool, alpha float64) dramlat.Results {
	return r.lookup(r.spec(bench, sched, perfect, zerodiv, alpha))
}

func (r *Runner) base(bench string) dramlat.Results { return r.run(bench, "gmc", false, false, 0.5) }

// ticks is the kernel time of (bench, sched), averaged over Seeds seeds from Seed on.
func (r *Runner) ticks(bench, sched string) float64 {
	n, sub, sum := max(r.Seeds, 1), *r, 0.0
	for i := range n {
		sub.Seed = r.Seed + int64(i)
		sum += float64(sub.run(bench, sched, false, false, 0.5).Ticks)
	}
	return sum / float64(n)
}

// speedup of sched over the GMC baseline (kernel-time ratio).
func (r *Runner) speedup(bench, sched string) float64 {
	return r.ticks(bench, "gmc") / r.ticks(bench, sched)
}

// Table is one table or figure of the evaluation, as data.
type Table struct {
	Title   string
	Label   Column // the row-label column; a nameless one prints no header line
	Columns []Column
	Rows    []Row
	Summary *Row // GEOMEAN or MEAN of each column over Rows, or nil
	// Paper holds the paper's reference values, by the column (Table I: row; §VI-B: mean) they match.
	Paper map[string]float64
	Notes []string // lines printed after the rows
}

// Column is a column's header, width and cell format. A Percent cell
// prints its value times 100.
type Column struct {
	Name, Format string
	Width        int
	Percent      bool
}

// Row is a labelled row of up to one value per column, then a note.
type Row struct {
	Label, Note string
	Values      []float64
}

// Blank marks a cell with no value, printed empty: a NaN no arithmetic yields.
var Blank = math.Float64frombits(0x7ff8_0000_0000_0b1a)

var summaries = map[string]func([]float64) float64{"GEOMEAN": geomean, "MEAN": mean}

// Column returns column j's values, one per row.
func (t *Table) Column(j int) []float64 {
	xs := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		xs[i] = r.Values[j]
	}
	return xs
}

// rowsOf builds a table with one row per bench, valued row(bench), and the
// summary row that summary ("GEOMEAN" or "MEAN") names, if any.
func rowsOf(title string, label Column, cols []Column, benches []string, summary string, row func(b string) []float64) *Table {
	t := &Table{Title: title, Label: label, Columns: cols}
	for _, b := range benches {
		t.Rows = append(t.Rows, Row{Label: b, Values: row(b)})
	}
	if f := summaries[summary]; f != nil {
		t.Summary = &Row{Label: summary}
		for j := range cols {
			t.Summary.Values = append(t.Summary.Values, f(t.Column(j)))
		}
	}
	return t
}

// grid builds a benchmark × scheduler table: cell(bench, scheds[j]) under cols[j].
func grid(title string, label Column, cols []Column, benches, scheds []string, summary string, cell func(b, s string) float64) *Table {
	return rowsOf(title, label, cols, benches, summary, func(b string) []float64 {
		vs := make([]float64, len(scheds))
		for j, s := range scheds {
			vs[j] = cell(b, s)
		}
		return vs
	})
}

// cols makes one column per name, all of one width and format.
func cols(width int, format string, percent bool, names ...string) []Column {
	cs := make([]Column, len(names))
	for i, n := range names {
		cs[i] = Column{n, format, width, percent}
	}
	return cs
}

// Render writes tables as text, each under a "==== title ====" line, with
// every cell right-aligned to its column's width.
func Render(w io.Writer, tables []*Table) error {
	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "\n==== %s ====\n", t.Title)
		if t.Label.Name != "" {
			fmt.Fprintf(&b, "%-*s", t.Label.Width, t.Label.Name)
			for _, c := range t.Columns {
				fmt.Fprintf(&b, " %*s", c.Width, c.Name)
			}
			b.WriteByte('\n')
		}
		rows := t.Rows
		if t.Summary != nil {
			rows = append(rows[:len(rows):len(rows)], *t.Summary)
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%-*s", t.Label.Width, r.Label)
			for j, v := range r.Values {
				c, cell := t.Columns[j], ""
				if math.Float64bits(v) != math.Float64bits(Blank) {
					if c.Percent {
						v *= 100
					}
					cell = fmt.Sprintf(c.Format, v)
				}
				fmt.Fprintf(&b, " %*s", c.Width, cell)
			}
			if r.Note != "" {
				b.WriteString("   " + r.Note)
			}
			b.WriteByte('\n')
		}
		for _, n := range t.Notes {
			b.WriteString(n + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// byBench is the row-label column of the per-benchmark tables.
var byBench = Column{Name: "bench", Width: 10}

func table1(*Runner) *Table {
	tab := dramlat.MERBTable(16)
	t := &Table{Title: "Table I: MERB values (GDDR5)", Label: Column{Name: "banks", Width: 10},
		Columns: []Column{{Name: "MERB", Format: "%.0f"}}, Notes: []string{"paper:"},
		Paper: map[string]float64{"1": 31, "2": 20, "3": 10, "4": 7, "5": 5, "6-16": 5}}
	for i, banks := range []string{"1", "2", "3", "4", "5", "6-16"} {
		t.Rows = append(t.Rows, Row{Label: banks, Values: []float64{float64(tab[i])}})
		t.Notes[0] += fmt.Sprintf(" %.0f", t.Paper[banks])
	}
	return t
}

func table2(*Runner) *Table {
	cfg := dramlat.Config(dramlat.RunSpec{})
	t := cfg.Timing
	return &Table{Title: "Table II: simulation parameters", Notes: []string{
		fmt.Sprintf("compute units        %d", cfg.NumSMs),
		fmt.Sprintf("warp size            %d", cfg.WarpSize),
		fmt.Sprintf("max warps/core       %d (1024 threads)", cfg.WarpsPerSM),
		fmt.Sprintf("L1 per core          %dKB %d-way, %dB lines", cfg.L1SizeBytes>>10, cfg.L1Ways, cfg.LineBytes),
		fmt.Sprintf("L2 per partition     %dKB %d-way", cfg.L2SliceSize>>10, cfg.L2Ways),
		fmt.Sprintf("DRAM channels        %d x 64-bit GDDR5", cfg.NumChannels),
		fmt.Sprintf("banks/chip           %d (%d bank groups)", cfg.NumBanks, cfg.BankGroups),
		fmt.Sprintf("read/write queues    %d/%d, watermarks %d/%d", cfg.ReadQ, cfg.WriteQ, cfg.HighWM, cfg.LowWM),
		"tCK                  0.667 ns (6 Gbps pin)",
		fmt.Sprintf("tRC=%dns tRCD=%dns tRP=%dns tCAS=%dns tRAS=%dns",
			int(t.TRCNS), int(t.TRCDNS), int(t.TRPNS), int(t.TCASNS), int(t.TRASNS)),
		fmt.Sprintf("tRRD=%.1fns tWTR=%dns tFAW=%dns tRTP=%dns", t.TRRDNS, int(t.TWTRNS), int(t.TFAWNS), int(t.TRTPNS)),
		fmt.Sprintf("tWL=%dtCK tBURST=%dtCK tRTRS=%dtCK tCCDL=%dtCK tCCDS=%dtCK", t.TWL, t.TBURST, t.TRTRS, t.TCCDL, t.TCCDS),
	}}
}

func table3(*Runner) *Table {
	t := &Table{Title: "Table III: workloads"}
	for _, b := range dramlat.Benchmarks() {
		kind := "regular (§VI-A)"
		if b.Irregular {
			kind = "irregular"
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%-14s %-12s %-16s %s", b.Name, b.Suite, kind, b.Desc))
	}
	return t
}

func fig2(r *Runner) *Table {
	t := rowsOf("Fig 2: coalescing efficiency (GMC baseline)", byBench,
		[]Column{{">1-request loads", "%.0f%%", 18, true}, {"reqs/load", "%.2f", 14, false}},
		dramlat.IrregularNames(), "MEAN", func(b string) []float64 {
			s := r.base(b).Summary
			return []float64{s.MultiReqFrac, s.ReqsPerLoad}
		})
	t.Paper = map[string]float64{">1-request loads": 0.56, "reqs/load": 5.9}
	t.Summary.Note = fmt.Sprintf("(paper: %.0f%%, %.1f)", t.Paper[">1-request loads"]*100, t.Paper["reqs/load"])
	return t
}

func fig3(r *Runner) *Table {
	t := rowsOf("Fig 3: extent of memory latency divergence (GMC baseline)", byBench,
		[]Column{{"last/first", "%.2fx", 12, false}, {"MCs/warp", "%.2f", 12, false}},
		dramlat.IrregularNames(), "MEAN", func(b string) []float64 {
			s := r.base(b).Summary
			return []float64{s.LastOverFirst, s.AvgMCsTouched}
		})
	t.Paper = map[string]float64{"last/first": 1.6, "MCs/warp": 2.5}
	t.Summary.Note = fmt.Sprintf("(paper: %.1fx, %.1f)", t.Paper["last/first"], t.Paper["MCs/warp"])
	return t
}

func fig4(r *Runner) *Table {
	t := rowsOf("Fig 4: room for improvement (speedup over GMC)", byBench,
		[]Column{{"perfect coalescing", "%.2fx", 18, false}, {"zero latency divergence", "%.2fx", 22, false}},
		dramlat.IrregularNames(), "GEOMEAN", func(b string) []float64 {
			base := float64(r.base(b).Ticks)
			return []float64{base / float64(r.run(b, "gmc", true, false, 0.5).Ticks),
				base / float64(r.run(b, "gmc", false, true, 0.5).Ticks)}
		})
	t.Paper = map[string]float64{"perfect coalescing": 5, "zero latency divergence": 1.43}
	t.Summary.Note = fmt.Sprintf("(paper: ~%.0fx, ~%.2fx)", t.Paper["perfect coalescing"], t.Paper["zero latency divergence"])
	return t
}

func fig8(r *Runner) *Table {
	scheds := dramlat.WarpAwareSchedulers()
	t := grid("Fig 8: performance normalized to GMC", byBench, cols(8, "%.3f", false, scheds...),
		dramlat.IrregularNames(), scheds, "GEOMEAN", r.speedup)
	t.Paper = map[string]float64{"wg": 1.034, "wg-m": 1.062, "wg-bw": 1.084, "wg-w": 1.101}
	t.Notes = []string{fmt.Sprintf("paper means: wg %.3f, wg-m %.3f, wg-bw %.3f, wg-w %.3f",
		t.Paper["wg"], t.Paper["wg-m"], t.Paper["wg-bw"], t.Paper["wg-w"])}
	return t
}

func fig9(r *Runner) *Table {
	scheds := dramlat.WarpAwareSchedulers()
	t := grid("Fig 9: effective main-memory latency (normalized to GMC)", byBench, cols(8, "%.3f", false, scheds...),
		dramlat.IrregularNames(), scheds, "GEOMEAN", func(b, s string) float64 {
			base := r.base(b).Summary.EffectiveLatency
			return r.run(b, s, false, false, 0.5).Summary.EffectiveLatency / base
		})
	t.Paper = map[string]float64{"wg": 0.909, "wg-m": 0.831}
	t.Notes = []string{fmt.Sprintf("paper: wg %.1f%% (%.3f), wg-m %.1f%% (%.3f)",
		(t.Paper["wg"]-1)*100, t.Paper["wg"], (t.Paper["wg-m"]-1)*100, t.Paper["wg-m"])}
	return t
}

func fig10(r *Runner) *Table {
	scheds := append([]string{"gmc"}, dramlat.WarpAwareSchedulers()...)
	return grid("Fig 10: DRAM latency divergence (first-to-last gap, ticks)", byBench, cols(8, "%.0f", false, scheds...),
		dramlat.IrregularNames(), scheds, "", func(b, s string) float64 {
			return r.run(b, s, false, false, 0.5).Summary.DivergenceGap
		})
}

func fig11(r *Runner) *Table {
	scheds := append([]string{"gmc"}, dramlat.WarpAwareSchedulers()...)
	t := grid("Fig 11: DRAM bandwidth utilization", byBench, cols(8, "%.1f%%", true, scheds...),
		dramlat.IrregularNames(), scheds, "MEAN", func(b, s string) float64 {
			return r.run(b, s, false, false, 0.5).Utilization
		})
	t.Notes = []string{"paper: wg-bw recovers >14% of the bandwidth wg-m loses"}
	return t
}

func fig12(r *Runner) *Table {
	return rowsOf("Fig 12: write intensity and drain-stalled warp-groups (wg-w)", byBench,
		[]Column{{"write frac", "%.1f%%", 12, true}, {"unit/orphan stalled", "%.1f%%", 22, true}},
		dramlat.IrregularNames(), "", func(b string) []float64 {
			res := r.run(b, "wg-w", false, false, 0.5)
			frac := 0.0
			if res.DrainStalledGroups > 0 {
				frac = float64(res.DrainStalledUnitOrOrphan) / float64(res.DrainStalledGroups)
			}
			return []float64{res.WriteFrac, frac}
		})
}

func regular(r *Runner) *Table {
	t := grid("Section VI-A: non-divergent applications (wg-w vs GMC)", Column{Name: "bench", Width: 14},
		cols(10, "%.3f", false, "speedup"), dramlat.RegularNames(), []string{"wg-w"}, "GEOMEAN", r.speedup)
	worst := math.Inf(1)
	for _, s := range t.Column(0) {
		if s < worst {
			worst = s
		}
	}
	t.Paper = map[string]float64{"speedup": 1.018}
	t.Summary.Note = fmt.Sprintf("worst %.3f   (paper: %+.1f%%, no slowdowns)", worst, (t.Paper["speedup"]-1)*100)
	return t
}

func powerExp(r *Runner) *Table {
	var hitDeltas []float64
	t := rowsOf("Section VI-B: row-hit rate and GDDR5 power (wg-w vs GMC)", byBench,
		[]Column{{"gmc hit", "%.1f%%", 12, true}, {"wg-w hit", "%.1f%%", 12, true}, {"power delta", "%+.2f%%", 12, true}},
		dramlat.IrregularNames(), "", func(b string) []float64 {
			g, w := r.base(b), r.run(b, "wg-w", false, false, 0.5)
			if g.RowHitRate > 0 {
				hitDeltas = append(hitDeltas, w.RowHitRate/g.RowHitRate-1)
			}
			return []float64{g.RowHitRate, w.RowHitRate, dramlat.EstimatePower(w).TotalMW/dramlat.EstimatePower(g).TotalMW - 1}
		})
	t.Paper = map[string]float64{"hit-rate change": -0.16, "power delta": 0.018}
	t.Notes = []string{fmt.Sprintf("MEAN hit-rate change %+.1f%%, power change %+.2f%%   (paper: %+.0f%%, %+.1f%%)",
		mean(hitDeltas)*100, mean(t.Column(2))*100, t.Paper["hit-rate change"]*100, t.Paper["power delta"]*100)}
	return t
}

func sbwas(r *Runner) *Table {
	t := rowsOf("Section VI-C1: SBWAS (alpha profiled per benchmark)", byBench,
		[]Column{{"alpha", "%.2f", 8, false}, {"speedup", "%.3f", 8, false}},
		dramlat.IrregularNames(), "GEOMEAN", func(b string) []float64 {
			best, bestA := 0.0, 0.0
			for _, a := range []float64{0.25, 0.5, 0.75} {
				s := float64(r.base(b).Ticks) / float64(r.run(b, "sbwas", false, false, a).Ticks)
				if s > best {
					best, bestA = s, a
				}
			}
			return []float64{bestA, best}
		})
	t.Summary.Values[0] = Blank
	t.Paper = map[string]float64{"speedup": 1.0251}
	t.Summary.Note = fmt.Sprintf("(paper: %+.2f%%)", (t.Paper["speedup"]-1)*100)
	return t
}

func wafcfs(r *Runner) *Table {
	t := grid("Section VI-C2: WAFCFS (Yuan et al.)", byBench, cols(8, "%.3f", false, "speedup"),
		dramlat.IrregularNames(), []string{"wafcfs"}, "GEOMEAN", r.speedup)
	t.Paper = map[string]float64{"speedup": 0.888}
	t.Summary.Note = fmt.Sprintf("(paper: %.3f, an %.1f%% degradation)", t.Paper["speedup"], (1-t.Paper["speedup"])*100)
	return t
}

func util1bank(*Runner) *Table {
	t := &Table{Title: "Section IV-D: single-bank utilization model"}
	tm := dramlat.Timing()
	for _, n := range []int{1, 2, 4, 8, 16, 31} {
		u := tm.SingleBankUtilization(n)
		t.Notes = append(t.Notes, fmt.Sprintf("n=%-4d %5.1f%% %s", n, u*100, strings.Repeat("#", int(u*50))))
	}
	return t
}

// cpusched runs the CPU memory schedulers the paper argues are ill-suited
// to warp-level divergence (Section VI-C3): PAR-BS batches mix warps, and
// ATLAS coordinates at quanta far coarser than a warp's lifetime.
func cpusched(r *Runner) *Table {
	scheds := []string{"parbs", "atlas", "wg-w"}
	t := grid("Section VI-C3: CPU memory schedulers (PAR-BS, ATLAS) vs GMC", byBench, cols(8, "%.3f", false, scheds...),
		dramlat.IrregularNames(), scheds, "GEOMEAN", r.speedup)
	t.Notes = []string{"(the paper argues thread-centric CPU policies cannot reduce",
		" warp latency divergence; they should trail the wg family)"}
	return t
}

// extension runs the shared-data warp-group priority sketched in the
// paper's conclusion (wg-sh = wg-w + multi-warp-demand priority).
func extension(r *Runner) *Table {
	scheds := []string{"wg-w", "wg-sh"}
	return grid("Conclusion extension: shared-data warp-group priority (wg-sh)", byBench, cols(8, "%.3f", false, scheds...),
		dramlat.IrregularNames(), scheds, "GEOMEAN", r.speedup)
}

// motivation quantifies Section III-A's argument that multithreading cannot
// hide divergence stalls: the share of SM cycles with live warps, none ready.
func motivation(r *Runner) *Table {
	t := rowsOf("Section III-A: SM idle cycles (all warps stalled) under GMC", byBench,
		[]Column{{"idle frac", "%.1f%%", 12, true}, {"L1 hit rate", "%.1f%%", 12, true}},
		dramlat.IrregularNames(), "MEAN", func(b string) []float64 {
			res := r.base(b)
			return []float64{res.SMIdleFrac, res.L1HitRate}
		})
	t.Summary.Values = t.Summary.Values[:1]
	t.Notes = []string{"(previous studies [18],[27]: cores frequently sit idle with all",
		" warps stalled on memory; caches have poor hit rates under",
		" thousands of concurrent threads)"}
	return t
}

// sensitivity sweeps the read-queue depth (Table II: 64), the warp-aware
// scheduler's reordering freedom: its gain should grow with the depth.
func sensitivity(r *Runner) *Table {
	benches := []string{"spmv", "kmeans"}
	t := grid("Sensitivity: wg-w speedup over GMC vs read-queue depth", Column{Name: "readQ", Width: 16},
		cols(10, "%.3f", false, benches...), []string{"16", "32", "64", "128"}, benches, "", func(rq, b string) float64 {
			g, w := r.spec(b, "gmc", false, false, 0.5), r.spec(b, "wg-w", false, false, 0.5)
			g.ReadQ, _ = strconv.Atoi(rq)
			w.ReadQ = g.ReadQ
			return float64(r.lookup(g).Ticks) / float64(r.lookup(w).Ticks)
		})
	t.Notes = []string{"(deeper queues give the warp-aware scheduler more to reorder)"}
	return t
}

// ablation measures the warp-aware design choices DESIGN.md calls out
// (bank-aware scoring, orphan control, L2 group-complete credits) as the
// slowdown of wg-bw without each, on four representative benchmarks.
func ablation(r *Runner) *Table {
	t := &Table{Title: "Ablation: warp-aware design choices (slowdown of wg-bw when removed)"}
	for _, ab := range []string{"count-score", "no-orphan", "no-credits"} {
		sub := *r
		sub.ablation = ab
		var slow []float64
		line := fmt.Sprintf("%-14s", ab)
		for _, b := range []string{"bfs", "kmeans", "spmv", "sssp"} {
			full := float64(r.run(b, "wg-bw", false, false, 0.5).Ticks)
			abl := float64(sub.run(b, "wg-bw", false, false, 0.5).Ticks)
			slow = append(slow, abl/full)
			line += fmt.Sprintf(" %s=%.3f", b, abl/full)
		}
		t.Notes = append(t.Notes, line+fmt.Sprintf("  geomean=%.3f", geomean(slow)))
	}
	t.Notes = append(t.Notes, "(values > 1.000 mean the removed mechanism was helping)")
	return t
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
