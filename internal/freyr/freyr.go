// Package freyr implements the Freyr-analogue baseline (WWW '22), the
// closest related system the paper compares against (§8.3, §9).
//
// Freyr learns resource-harvesting decisions with a Deep-RL agent. We do
// not re-train a DRL agent; instead this estimator encodes the three
// design properties the paper isolates as Freyr's deltas against Libra,
// which is what the comparison actually measures (see DESIGN.md §1):
//
//  1. No input-size awareness: predictions come from per-function
//     execution history only (an exponentially-decayed quantile over
//     observed peaks, the stand-in for the converged value function).
//  2. No timeliness: the platform layer marks Freyr's harvested units
//     with an unbounded expiry, so neither pool priorities nor demand
//     coverage can exploit availability windows.
//  3. No timely safeguard: mispredictions are corrected only for the
//     *next* invocation (the history shifts), never for the current one —
//     the platform layer runs Freyr without the safeguard daemon.
//
// Freyr also harvests aggressively: the allocation equals the predicted
// peak with no headroom margin.
package freyr

import (
	"sort"
	"sync"

	"libra/internal/function"
	"libra/internal/profiler"
	"libra/internal/resources"
)

// HistoryDepth bounds the per-function history the estimator keeps.
const HistoryDepth = 64

// PeakQuantile is the history quantile used to predict resource peaks —
// high but not maximal, mimicking a converged RL policy that trades a
// little safety for harvesting yield.
const PeakQuantile = 0.9

// Estimator is Freyr's history-driven demand estimator. It satisfies
// profiler.Estimator.
type Estimator struct {
	mu   sync.Mutex
	hist profiler.History
}

// New creates an Estimator.
func New() *Estimator {
	return &Estimator{}
}

// Predict implements profiler.Estimator. With no history the invocation
// runs on its user allocation (unreliable prediction); afterwards the
// estimate is the decayed-history quantile of peaks and the median of
// durations. Input size is deliberately ignored.
func (e *Estimator) Predict(spec *function.Spec, _ function.Input) (profiler.Prediction, float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := e.hist.Of(spec)
	if len(h) == 0 {
		return profiler.Prediction{
			Demand:   function.Demand{CPUPeak: spec.UserAlloc.CPU, MemPeak: spec.UserAlloc.Mem},
			Source:   profiler.SourceFirstSeen,
			Reliable: false,
		}, 0
	}
	cpu := make([]float64, len(h))
	mem := make([]float64, len(h))
	dur := make([]float64, len(h))
	for i, d := range h {
		cpu[i] = float64(d.CPUPeak)
		mem[i] = float64(d.MemPeak)
		dur[i] = d.Duration
	}
	pred := function.Demand{
		CPUPeak:  resources.Millicores(quantile(cpu, PeakQuantile)),
		MemPeak:  resources.MegaBytes(quantile(mem, PeakQuantile)),
		Duration: quantile(dur, 0.5),
	}
	if pred.CPUPeak > function.MaxAlloc.CPU {
		pred.CPUPeak = function.MaxAlloc.CPU
	}
	if pred.MemPeak > function.MaxAlloc.Mem {
		pred.MemPeak = function.MaxAlloc.Mem
	}
	return profiler.Prediction{
		Demand:   pred,
		Source:   profiler.SourceHistogram,
		Reliable: true,
	}, 0
}

// Observe implements profiler.Estimator.
func (e *Estimator) Observe(spec *function.Spec, _ function.Input, actual function.Demand) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hist.Add(spec, actual, HistoryDepth)
}

func quantile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	idx := int(q * float64(len(s)-1))
	return s[idx]
}

var _ profiler.Estimator = (*Estimator)(nil)
