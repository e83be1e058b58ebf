package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Record is one flattened sweep row: the canonical spec dimensions plus
// the headline metrics, shaped for JSON/CSV consumers (plotting scripts,
// regression dashboards) that should not need to understand RunSpec or
// Results internals.
type Record struct {
	Benchmark         string  `json:"benchmark"`
	Scheduler         string  `json:"scheduler"`
	Seed              int64   `json:"seed"`
	Scale             float64 `json:"scale"`
	SMs               int     `json:"sms"`
	WarpsPerSM        int     `json:"warps_per_sm"`
	ReadQ             int     `json:"read_q"`
	CmdQueueCap       int     `json:"cmd_queue_cap"`
	SBWASAlpha        float64 `json:"sbwas_alpha"`
	Ablation          string  `json:"ablation,omitempty"`
	WarpSched         string  `json:"warp_sched"`
	PerfectCoalescing bool    `json:"perfect_coalescing"`
	ZeroDivergence    bool    `json:"zero_divergence"`

	Hash   string `json:"hash"`
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`

	Ticks            int64   `json:"ticks"`
	Instr            int64   `json:"instr"`
	IPC              float64 `json:"ipc"`
	Utilization      float64 `json:"utilization"`
	RowHitRate       float64 `json:"row_hit_rate"`
	L1HitRate        float64 `json:"l1_hit_rate"`
	L2HitRate        float64 `json:"l2_hit_rate"`
	EffectiveLatency float64 `json:"effective_latency"`
	DivergenceGap    float64 `json:"divergence_gap"`
	LastOverFirst    float64 `json:"last_over_first"`
	MultiReqFrac     float64 `json:"multi_req_frac"`
	ReqsPerLoad      float64 `json:"reqs_per_load"`
	AvgMCsTouched    float64 `json:"avg_mcs_touched"`
	SMIdleFrac       float64 `json:"sm_idle_frac"`
	WriteFrac        float64 `json:"write_frac"`
}

// RecordOf flattens one outcome.
func RecordOf(o Outcome) Record {
	c := o.Spec.Canonical()
	rec := Record{
		Benchmark: c.Benchmark, Scheduler: c.Scheduler,
		Seed: c.Seed, Scale: c.Scale,
		SMs: c.SMs, WarpsPerSM: c.WarpsPerSM,
		ReadQ: c.ReadQ, CmdQueueCap: c.CmdQueueCap,
		SBWASAlpha: c.SBWASAlpha, Ablation: c.Ablation, WarpSched: c.WarpSched,
		PerfectCoalescing: c.PerfectCoalescing, ZeroDivergence: c.ZeroDivergence,
		Hash: o.Hash, Cached: o.Cached,
	}
	if rec.Hash == "" {
		rec.Hash = o.Spec.Hash()
	}
	if o.Err != nil {
		rec.Error = o.Err.Error()
	}
	r := o.Results
	s := r.Summary
	rec.Ticks, rec.Instr, rec.IPC = r.Ticks, r.Instr, r.IPC
	rec.Utilization, rec.RowHitRate = r.Utilization, r.RowHitRate
	rec.L1HitRate, rec.L2HitRate = r.L1HitRate, r.L2HitRate
	rec.EffectiveLatency, rec.DivergenceGap = s.EffectiveLatency, s.DivergenceGap
	rec.LastOverFirst, rec.MultiReqFrac = s.LastOverFirst, s.MultiReqFrac
	rec.ReqsPerLoad, rec.AvgMCsTouched = s.ReqsPerLoad, s.AvgMCsTouched
	rec.SMIdleFrac, rec.WriteFrac = r.SMIdleFrac, r.WriteFrac
	return rec
}

// Records flattens every outcome of the report, in input order.
func (r *Report) Records() []Record {
	out := make([]Record, len(r.Outcomes))
	for i, o := range r.Outcomes {
		out[i] = RecordOf(o)
	}
	return out
}

// jsonReport is the exported JSON envelope.
type jsonReport struct {
	Total     int      `json:"total"`
	Executed  int      `json:"executed"`
	Cached    int      `json:"cached"`
	Failed    int      `json:"failed"`
	ElapsedMS int64    `json:"elapsed_ms"`
	Runs      []Record `json:"runs"`
}

// WriteJSON emits the report as indented JSON: summary counters plus one
// record per spec.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		Total: len(r.Outcomes), Executed: r.Executed,
		Cached: r.Cached, Failed: r.Failed,
		ElapsedMS: r.Elapsed.Milliseconds(),
		Runs:      r.Records(),
	})
}

// csvHeader lists the CSV columns, matching Record field order.
var csvHeader = []string{
	"benchmark", "scheduler", "seed", "scale", "sms", "warps_per_sm",
	"read_q", "cmd_queue_cap", "sbwas_alpha", "ablation", "warp_sched",
	"perfect_coalescing", "zero_divergence", "hash", "cached", "error",
	"ticks", "instr", "ipc", "utilization", "row_hit_rate",
	"l1_hit_rate", "l2_hit_rate", "effective_latency", "divergence_gap",
	"last_over_first", "multi_req_frac", "reqs_per_load",
	"avg_mcs_touched", "sm_idle_frac", "write_frac",
}

// WriteCSV emits one row per spec with a header line.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, rec := range r.Records() {
		row := []string{
			rec.Benchmark, rec.Scheduler,
			strconv.FormatInt(rec.Seed, 10), f(rec.Scale),
			strconv.Itoa(rec.SMs), strconv.Itoa(rec.WarpsPerSM),
			strconv.Itoa(rec.ReadQ), strconv.Itoa(rec.CmdQueueCap),
			f(rec.SBWASAlpha), rec.Ablation, rec.WarpSched,
			strconv.FormatBool(rec.PerfectCoalescing),
			strconv.FormatBool(rec.ZeroDivergence),
			rec.Hash, strconv.FormatBool(rec.Cached), rec.Error,
			strconv.FormatInt(rec.Ticks, 10), strconv.FormatInt(rec.Instr, 10),
			f(rec.IPC), f(rec.Utilization), f(rec.RowHitRate),
			f(rec.L1HitRate), f(rec.L2HitRate), f(rec.EffectiveLatency),
			f(rec.DivergenceGap), f(rec.LastOverFirst), f(rec.MultiReqFrac),
			f(rec.ReqsPerLoad), f(rec.AvgMCsTouched), f(rec.SMIdleFrac),
			f(rec.WriteFrac),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary returns a one-line human digest ("12 specs: 8 executed, 4
// cached, 0 failed in 1.2s") for progress footers.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d specs: %d executed, %d cached, %d failed in %v",
		len(r.Outcomes), r.Executed, r.Cached, r.Failed, r.Elapsed.Round(10_000_000))
}
