package stats

import (
	"math"

	"dramlat/internal/guard"
)

// Bound is one metric's allowed deviation between a sampled run and
// its exact event-engine reference: the larger of Rel×|exact| and Abs.
// The absolute floor keeps near-zero references (an IPC of 0.02, a p50
// gap of 3 ticks) from demanding sub-tick agreement no statistical
// model can deliver.
type Bound struct {
	Rel float64 // relative tolerance, e.g. 0.15 = ±15%
	Abs float64 // absolute floor in the metric's own unit
}

// Allowed returns the absolute deviation the bound permits against
// reference value exact.
func (b Bound) Allowed(exact float64) float64 {
	return math.Max(b.Rel*math.Abs(exact), b.Abs)
}

// Bounds is the distributional-validation contract for the sampled
// engine: per-metric tolerances for IPC and the divergence-gap
// percentiles the paper's figures are built from.
type Bounds struct {
	IPC    Bound
	GapP50 Bound
	GapP90 Bound
	GapP99 Bound
}

// DefaultBounds returns the tolerances the CI accuracy gate runs
// with. IPC is the tightest (it averages over the whole run); the gap
// percentiles widen toward the tail, where a finite sample of
// synthesized groups has the most variance. The absolute floors are
// in ticks for the gaps and absolute IPC for IPC.
func DefaultBounds() Bounds {
	return Bounds{
		IPC:    Bound{Rel: 0.15, Abs: 0.02},
		GapP50: Bound{Rel: 0.25, Abs: 30},
		GapP90: Bound{Rel: 0.30, Abs: 60},
		GapP99: Bound{Rel: 0.40, Abs: 120},
	}
}

// MetricPair is one (sampled, exact) comparison for Check.
type MetricPair struct {
	Name    string
	Sampled float64
	Exact   float64
	Bound   Bound
}

// Check validates every pair and returns a *guard.AccuracyError for
// the worst violation (largest deviation-to-allowance ratio), or nil
// when all metrics are in bounds.
func Check(pairs []MetricPair) error {
	var worst *guard.AccuracyError
	worstRatio := 1.0
	for _, p := range pairs {
		allowed := p.Bound.Allowed(p.Exact)
		dev := math.Abs(p.Sampled - p.Exact)
		if allowed <= 0 || dev <= allowed {
			continue
		}
		if ratio := dev / allowed; ratio > worstRatio {
			worstRatio = ratio
			worst = &guard.AccuracyError{
				Metric: p.Name, Sampled: p.Sampled, Exact: p.Exact, Bound: allowed,
			}
		}
	}
	if worst != nil {
		return worst
	}
	return nil
}

// MeanCI95 returns the sample mean of xs and the half-width of its
// 95% confidence interval (1.96·s/√n). Fewer than two samples give a
// half-width of 0 — with one measurement window there is no
// window-to-window variance to report.
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return mean, 1.96 * sd / math.Sqrt(float64(n))
}
