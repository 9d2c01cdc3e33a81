package profiler

import (
	"sync"

	"libra/internal/function"
)

// WindowEstimator is the profiler replacement used by the Libra-NP
// variant (§8.3): no ML, no histograms — every function keeps a moving
// window over its n latest invocations and the maximum CPU peak, maximum
// memory peak and maximum execution time in the window become the
// prediction for the next invocation.
type WindowEstimator struct {
	mu   sync.Mutex
	n    int
	hist History
}

// NewWindowEstimator creates a WindowEstimator with window size n (the
// paper's experiment uses n = 5).
func NewWindowEstimator(n int) *WindowEstimator {
	if n <= 0 {
		n = 5
	}
	return &WindowEstimator{n: n}
}

// Predict returns the window-max demand estimate. Until the window has at
// least one observation the prediction is unreliable and the invocation
// runs with its user allocation.
func (w *WindowEstimator) Predict(spec *function.Spec, _ function.Input) (Prediction, float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	win := w.hist.Of(spec)
	if len(win) == 0 {
		return Prediction{
			Demand:   function.Demand{CPUPeak: spec.UserAlloc.CPU, MemPeak: spec.UserAlloc.Mem},
			Source:   SourceFirstSeen,
			Reliable: false,
		}, 0
	}
	var d function.Demand
	for _, o := range win {
		if o.CPUPeak > d.CPUPeak {
			d.CPUPeak = o.CPUPeak
		}
		if o.MemPeak > d.MemPeak {
			d.MemPeak = o.MemPeak
		}
		if o.Duration > d.Duration {
			d.Duration = o.Duration
		}
	}
	return Prediction{Demand: d, Source: SourceHistogram, Reliable: true}, 0
}

// Observe appends an outcome, evicting the oldest beyond the window.
func (w *WindowEstimator) Observe(spec *function.Spec, _ function.Input, actual function.Demand) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.hist.Add(spec, actual, w.n)
}

// History keeps the demands of each function's latest completed
// invocations: what the estimators that predict from the past alone
// (WindowEstimator, freyr.Estimator) remember. A function is found by the
// identity of its spec down a short list, as in Profiler.profileOf and for
// its reason; two specs never share a list, whatever their names. The
// zero History is empty. It does no locking of its own.
type History struct {
	funcs []funcHistory
}

type funcHistory struct {
	spec   *function.Spec
	recent []function.Demand
}

func (h *History) find(spec *function.Spec) *funcHistory {
	for i := range h.funcs {
		if h.funcs[i].spec == spec {
			return &h.funcs[i]
		}
	}
	return nil
}

// Of returns spec's demands, oldest first; empty before its first Add.
func (h *History) Of(spec *function.Spec) []function.Demand {
	if fh := h.find(spec); fh != nil {
		return fh.recent
	}
	return nil
}

// Add appends an outcome to spec's demands and drops the oldest beyond
// depth.
func (h *History) Add(spec *function.Spec, actual function.Demand, depth int) {
	fh := h.find(spec)
	if fh == nil {
		h.funcs = append(h.funcs, funcHistory{spec: spec})
		fh = &h.funcs[len(h.funcs)-1]
	}
	fh.recent = append(fh.recent, actual)
	if len(fh.recent) > depth {
		fh.recent = fh.recent[len(fh.recent)-depth:]
	}
}

// Estimator is the interface the platform uses for demand prediction —
// satisfied by both Profiler (Libra) and WindowEstimator (Libra-NP).
type Estimator interface {
	Predict(spec *function.Spec, in function.Input) (Prediction, float64)
	Observe(spec *function.Spec, in function.Input, actual function.Demand)
}

var (
	_ Estimator = (*Profiler)(nil)
	_ Estimator = (*WindowEstimator)(nil)
)
