// Package histogram implements the online histogram models Libra's
// profiler uses for input-size-unrelated functions (§4.3.2). A histogram
// tracks the distribution of one metric (CPU peak, memory peak or
// execution time) and answers percentile queries: the paper estimates
// CPU/memory peaks with a tail (99th) percentile and execution time with a
// head (5th) percentile to harvest conservatively.
package histogram

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Histogram is a fixed-bucket-count online histogram over a configurable
// value range. Values outside the range clamp to the edge buckets, so the
// percentile answer degrades gracefully rather than failing.
type Histogram struct {
	lo, hi  float64
	buckets []uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

// New creates a histogram over [lo, hi) with n buckets. It panics on a
// degenerate range or bucket count, which is always a configuration bug.
func New(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic("histogram: bucket count must be positive")
	}
	if !(hi > lo) {
		panic(fmt.Sprintf("histogram: invalid range [%g, %g)", lo, hi))
	}
	return &Histogram{lo: lo, hi: hi, buckets: make([]uint64, n), min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[h.bucketOf(v)]++
}

func (h *Histogram) bucketOf(v float64) int {
	if v < h.lo {
		return 0
	}
	f := (v - h.lo) / (h.hi - h.lo) * float64(len(h.buckets))
	i := int(f)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the running mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observed value, or +Inf with no observations.
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observed value, or -Inf with no observations.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an estimate of the q-quantile (q in [0,1]) by linear
// interpolation inside the containing bucket. With no observations it
// returns 0. The estimate is clamped into [Min, Max] so tail queries never
// exceed the observed range — important because the profiler's P99 output
// becomes a resource allocation.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		next := cum + float64(c)
		if next >= target && c > 0 {
			width := (h.hi - h.lo) / float64(len(h.buckets))
			frac := (target - cum) / float64(c)
			v := h.lo + (float64(i)+frac)*width
			return clamp(v, h.min, h.max)
		}
		cum = next
	}
	return h.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Model is the per-function triple of histograms the profiler maintains
// for input-size-unrelated functions: CPU peak, memory peak and execution
// time (§4.3.2).
type Model struct {
	CPUPeak  *Histogram
	MemPeak  *Histogram
	Duration *Histogram
	// Window is how many observations are required before the model is
	// considered warmed up; during the profiling window Libra serves
	// invocations with maximum allocation to observe true peaks.
	Window int
}

// NewModel builds a Model sized for cpuMax millicores, memMax MB and
// durMax seconds, with the given warm-up window.
func NewModel(cpuMax, memMax, durMax float64, window int) *Model {
	return &Model{
		CPUPeak:  New(0, cpuMax, 64),
		MemPeak:  New(0, memMax, 64),
		Duration: New(0, durMax, 128),
		Window:   window,
	}
}

// Observe records the outcome of one completed invocation.
func (m *Model) Observe(cpuPeak, memPeak, duration float64) {
	m.CPUPeak.Observe(cpuPeak)
	m.MemPeak.Observe(memPeak)
	m.Duration.Observe(duration)
}

// Ready reports whether the profiling window has been filled.
func (m *Model) Ready() bool { return m.CPUPeak.Count() >= uint64(m.Window) }

// Estimate returns the paper's conservative triple: P99 CPU peak, P99
// memory peak (tail percentiles — assume the invocation may need a lot)
// and P5 duration (head percentile — assume harvested resources expire
// early). TailQ/HeadQ are 0.99 and 0.05.
func (m *Model) Estimate() (cpuPeak, memPeak, duration float64) {
	return m.CPUPeak.Quantile(TailQ), m.MemPeak.Quantile(TailQ), m.Duration.Quantile(HeadQ)
}

// Percentile conventions from §4.3.2, following the industrial convention
// in the Azure Functions study.
const (
	TailQ = 0.99
	HeadQ = 0.05
)

// Quantiles computes exact sample quantiles of data by linear
// interpolation between order statistics: what quantileSorted reads off a
// sorted copy. The copy is not sorted, though. A quantile reads at most two
// order statistics, and selectRanks puts just those where a sort would —
// linear in len(data) where the sort of a replay's 250 000 latencies was
// half of its report. Which of several equal values lands on a rank
// cannot show, except in the sign of a zero. Used by the metrics package
// for reporting; the online Histogram is for the profiler's streaming
// estimates.
func Quantiles(data []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(data) == 0 {
		return out
	}
	s := append([]float64(nil), data...)
	var few [16]int
	ranks := few[:0]
	for _, q := range qs {
		i, j := quantileRanks(len(s), q)
		ranks = append(ranks, i, j)
	}
	sort.Ints(ranks)
	// NaN sorts before everything (sort.Float64s): move them up front, and
	// the rest compares with a plain <.
	nan := 0
	for i, v := range s {
		if v != v {
			s[i], s[nan] = s[nan], s[i]
			nan++
		}
	}
	for len(ranks) > 0 && ranks[0] < nan {
		ranks = ranks[1:]
	}
	selectRanks(s, nan, len(s), ranks, 2*bits.Len(uint(len(s))))
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// quantileRanks returns the one or two indices of the sorted sample that
// quantileSorted reads for q.
func quantileRanks(n int, q float64) (i, j int) {
	switch {
	case q <= 0:
		return 0, 0
	case q >= 1:
		return n - 1, n - 1
	}
	i = int(q * float64(n-1))
	return i, min(i+1, n-1)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}

// selectRanks rearranges s[lo:hi], which holds no NaN, until every index
// in ranks (ascending, within [lo, hi)) holds the value a sort of the
// range would put there: quickselect, following every rank asked for. A
// range that is short, or reached after depth partitions — the budget of
// an input that keeps splitting badly — is sorted outright.
func selectRanks(s []float64, lo, hi int, ranks []int, depth int) {
	for len(ranks) > 0 && hi-lo > 1 {
		if hi-lo <= 16 || depth == 0 {
			sort.Float64s(s[lo:hi])
			return
		}
		depth--
		p := partition(s, lo, hi)
		below := sort.SearchInts(ranks, p)
		selectRanks(s, lo, p, ranks[:below], depth)
		ranks = ranks[below:]
		for len(ranks) > 0 && ranks[0] == p {
			ranks = ranks[1:]
		}
		lo = p + 1
	}
}

// partition picks the median of the first, middle and last value of
// s[lo:hi] as the pivot and returns where it ends up, with nothing larger
// before it and nothing smaller after it.
func partition(s []float64, lo, hi int) int {
	mid, last := lo+(hi-lo)/2, hi-1
	if s[mid] < s[lo] {
		s[mid], s[lo] = s[lo], s[mid]
	}
	if s[last] < s[lo] {
		s[last], s[lo] = s[lo], s[last]
	}
	if s[last] < s[mid] {
		s[last], s[mid] = s[mid], s[last]
	}
	s[lo], s[mid] = s[mid], s[lo]
	pivot := s[lo]
	i, j := lo+1, last
	for {
		for i <= j && s[i] < pivot {
			i++
		}
		for i <= j && s[j] > pivot {
			j--
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
		i++
		j--
	}
	s[lo], s[j] = s[j], s[lo]
	return j
}
