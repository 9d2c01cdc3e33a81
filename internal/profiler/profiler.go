// Package profiler implements Libra's transparent demand profiler (§4).
//
// For every function the profiler estimates three metrics per invocation —
// CPU usage peak, memory usage peak and execution time — without access to
// user code or input data *content*; only the input *size* is visible.
//
// Workflow (§4.1): the first invocation of a function is served with the
// user-configured resources while the workload duplicator builds a
// training dataset by duplicating the input to ≤100 different sizes and
// running a pilot execution per data point with maximum allocation. Three
// Random Forest models (two classifiers for the CPU/memory allocation
// class, one regressor for the duration) are trained once, offline. If
// the test accuracy and R² clear a threshold the function is *input
// size-related* and the ML models serve subsequent predictions; otherwise
// the function is treated as a black box and online histogram models
// (§4.3.2) estimate conservatively: P99 for resource peaks, P5 for
// duration. Histogram models keep updating after every completed
// invocation.
package profiler

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"libra/internal/function"
	"libra/internal/histogram"
	"libra/internal/mlkit"
	"libra/internal/resources"
)

// Mode selects which model families the profiler may use — the paper's
// model ablation (Fig 13a) compares Auto against histogram-only and
// ML-only variants.
type Mode int

const (
	// Auto picks ML for size-related functions and histograms otherwise.
	Auto Mode = iota
	// HistOnly forces histogram models for every function.
	HistOnly
	// MLOnly forces the ML models for every function.
	MLOnly
)

func (m Mode) String() string {
	switch m {
	case HistOnly:
		return "Hist"
	case MLOnly:
		return "ML"
	default:
		return "Auto"
	}
}

// Source says how a prediction was produced.
type Source int

const (
	// SourceFirstSeen: first invocation — served with user allocation, no
	// harvesting decisions are based on it.
	SourceFirstSeen Source = iota
	// SourceWarmup: inside the histogram profiling window — served with
	// maximum allocation to observe the true peaks.
	SourceWarmup
	// SourceML: Random Forest prediction (input size-related function).
	SourceML
	// SourceHistogram: histogram percentile estimate.
	SourceHistogram
)

func (s Source) String() string {
	switch s {
	case SourceWarmup:
		return "warmup"
	case SourceML:
		return "ml"
	case SourceHistogram:
		return "histogram"
	default:
		return "first-seen"
	}
}

// Prediction is the profiler's estimate for one invocation.
type Prediction struct {
	Demand function.Demand
	Source Source
	// Reliable reports whether the platform may harvest/accelerate based
	// on this prediction. First-seen and warm-up predictions are not
	// reliable: the invocation runs with user (resp. maximum) allocation
	// and its resources are not offered to the pool.
	Reliable bool
}

// Overheads of the profiler in virtual seconds, taken from §8.6: offline
// training < 120 ms, online inference < 2 ms, online update < 1 ms.
const (
	OfflineTrainOverhead = 0.120
	PredictOverhead      = 0.0015
	OnlineUpdateOverhead = 0.001
)

// Config parametrizes the profiler. Zero values select the defaults noted
// per field.
type Config struct {
	Mode Mode
	Seed int64
	// DuplicateMax is the maximum duplication factor of the workload
	// duplicator (default 100, §8.2.3).
	DuplicateMax int
	// AccThreshold / R2Threshold separate size-related from unrelated
	// functions (defaults 0.8 / 0.9; the paper suggests "for example 0.9
	// and 0.9" in §8.6 — any cut inside the wide margin between the two
	// families works: unrelated functions score strongly *negative* R²,
	// so the joint rule keeps a huge margin while 0.8 absorbs the
	// sparse-coverage error near allocation-class thresholds for
	// functions whose law crosses many classes).
	AccThreshold float64
	R2Threshold  float64
	// HistWindow is the profiling-window length (observations) before
	// histogram estimates are used (default 5). Each profiling-window
	// invocation is served with a maximum-allocation reservation, so the
	// window trades estimate quality against capacity crowding.
	HistWindow int
	// PilotNoise is the relative measurement noise of pilot executions
	// (default 0.03).
	PilotNoise float64
}

func (c *Config) defaults() {
	if c.DuplicateMax == 0 {
		c.DuplicateMax = 100
	}
	if c.AccThreshold == 0 {
		c.AccThreshold = 0.8
	}
	if c.R2Threshold == 0 {
		c.R2Threshold = 0.9
	}
	if c.HistWindow == 0 {
		c.HistWindow = 5
	}
	if c.PilotNoise == 0 {
		c.PilotNoise = 0.03
	}
}

// FuncReport summarises the trained models of one function (Table 2 rows
// and the size-related decision).
type FuncReport struct {
	App         string
	SizeRelated bool
	UseML       bool
	CPUAccuracy float64
	MemAccuracy float64
	DurationR2  float64
	TrainedOn   int // dataset size produced by the duplicator
}

type funcProfile struct {
	spec     *function.Spec
	trained  bool
	useML    bool
	cpuModel *mlkit.RandomForestClassifier
	memModel *mlkit.RandomForestClassifier
	durModel *mlkit.RandomForestRegressor
	hist     *histogram.Model
	report   FuncReport

	// ML serving state, see predictML: per feature the sorted distinct
	// split thresholds of the three forests, and the demands already
	// walked out, keyed by the input's rank in each list.
	cuts    [2][]float64
	memo    map[uint64]function.Demand
	memoMax int
}

// Profiler estimates invocation demands per function. It is safe for
// concurrent use (multiple sharding schedulers query it).
type Profiler struct {
	mu  sync.Mutex
	cfg Config
	rng *rand.Rand
	// funcs holds one profile per function seen, in first-seen order,
	// found by spec identity (see profileOf).
	funcs []*funcProfile

	predictions int64
}

// New creates a Profiler.
func New(cfg Config) *Profiler {
	cfg.defaults()
	return &Profiler{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// profileOf returns spec's profile, or nil before its first invocation. A
// platform serves a catalog's worth of functions, and each is one *Spec
// for the life of the process (function.ByName hands out the registered
// pointer), so comparing pointers down a short list beats hashing the
// name on every Predict and Observe. Callers hold p.mu.
func (p *Profiler) profileOf(spec *function.Spec) *funcProfile {
	for _, fp := range p.funcs {
		if fp.spec == spec {
			return fp
		}
	}
	return nil
}

// Predict estimates the demand of one invocation. trainOverhead is the
// virtual time the call cost beyond a prediction: OfflineTrainOverhead on
// the first-seen invocation, which triggers offline profiling, and zero
// on every later one.
func (p *Profiler) Predict(spec *function.Spec, in function.Input) (pred Prediction, trainOverhead float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.predictions++
	fp := p.profileOf(spec)
	if fp == nil {
		// First invocation: serve with user-defined resources (§4.1) and
		// kick off the one-time offline profiling from this input.
		p.funcs = append(p.funcs, p.profileOffline(spec, in))
		return Prediction{
			Demand: function.Demand{
				CPUPeak:  spec.UserAlloc.CPU,
				MemPeak:  spec.UserAlloc.Mem,
				Duration: 0,
			},
			Source:   SourceFirstSeen,
			Reliable: false,
		}, OfflineTrainOverhead
	}
	if fp.useML {
		return Prediction{Demand: fp.predictML(in.Size), Source: SourceML, Reliable: true}, 0
	}
	if !fp.hist.Ready() {
		// Profiling window: serve with maximum allocation to observe the
		// true peaks (§4.3.2).
		return Prediction{
			Demand: function.Demand{
				CPUPeak:  function.MaxAlloc.CPU,
				MemPeak:  function.MaxAlloc.Mem,
				Duration: 0,
			},
			Source:   SourceWarmup,
			Reliable: false,
		}, 0
	}
	cpu, mem, dur := fp.hist.Estimate()
	return Prediction{
		Demand: function.Demand{
			CPUPeak:  resources.Millicores(cpu),
			MemPeak:  resources.MegaBytes(mem),
			Duration: math.Max(0.05, dur),
		},
		Source:   SourceHistogram,
		Reliable: true,
	}, 0
}

// Observe feeds the actual outcome of a completed invocation back into
// the online models (Step 5 of the workflow).
func (p *Profiler) Observe(spec *function.Spec, in function.Input, actual function.Demand) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fp := p.profileOf(spec)
	if fp == nil {
		return
	}
	fp.hist.Observe(float64(actual.CPUPeak), float64(actual.MemPeak), actual.Duration)
}

// Report returns the per-function model report, or false if the function
// has not been profiled yet.
func (p *Profiler) Report(name string) (FuncReport, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fp := range p.funcs {
		if fp.spec.Name == name {
			return fp.report, true
		}
	}
	return FuncReport{}, false
}

// Predictions returns how many Predict calls were served.
func (p *Profiler) Predictions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.predictions
}

// profileOffline is the one-time offline phase: duplicate the input,
// run pilot executions, train the RF models, decide size-relatedness.
func (p *Profiler) profileOffline(spec *function.Spec, in function.Input) *funcProfile {
	X, cpuY, memY, durY := Duplicate(spec, in, p.cfg.DuplicateMax, p.cfg.PilotNoise, p.rng)
	fp := &funcProfile{
		spec: spec,
		hist: histogram.NewModel(
			float64(function.MaxAlloc.CPU), float64(function.MaxAlloc.Mem),
			120, p.cfg.HistWindow),
	}
	fp.report = trainAndScore(fp, X, cpuY, memY, durY, p.cfg, p.rng.Int63())
	fp.report.App = spec.Name
	fp.trained = true
	fp.useML = fp.report.UseML
	if fp.useML {
		for f := range fp.cuts {
			c := fp.cpuModel.AppendThresholds(nil, f)
			c = fp.memModel.AppendThresholds(c, f)
			c = fp.durModel.AppendThresholds(c, f)
			sort.Float64s(c)
			fp.cuts[f] = slices.Compact(c)
		}
		fp.memo = make(map[uint64]function.Demand)
		fp.memoMax = fp.cpuModel.Nodes() + fp.memModel.Nodes() + fp.durModel.Nodes()
	}
	return fp
}

// predictML serves the forests' demand estimate for an input size.
//
// A tree only ever asks x[f] <= thr, so over features(size) the three
// forests together are a step function: the answers to all their
// comparisons are fixed by how many of feature f's thresholds lie below
// x[f], for each f. SearchFloat64s computes exactly that rank — the first
// i with cuts[i] >= v, so x[f] <= cuts[j] iff j >= rank, NaN ranking past
// every threshold just as it fails every comparison — which makes the
// rank pair an exact key for the prediction, with no assumption about how
// the two features relate. The forests are walked on the first visit to a
// cell only. A trace revisits a few hundred cells; memoMax (one entry per
// tree node) bounds the table against an input stream that would not.
func (fp *funcProfile) predictML(size float64) function.Demand {
	x := features(size)
	key := uint64(sort.SearchFloat64s(fp.cuts[0], x[0]))<<32 |
		uint64(sort.SearchFloat64s(fp.cuts[1], x[1]))
	if d, ok := fp.memo[key]; ok {
		return d
	}
	d := fp.walk(x[:])
	if len(fp.memo) < fp.memoMax {
		fp.memo[key] = d
	}
	return d
}

// walk evaluates the three forests on one feature vector.
func (fp *funcProfile) walk(x []float64) function.Demand {
	return function.Demand{
		CPUPeak:  function.CPUFromClass(fp.cpuModel.PredictClass(x)),
		MemPeak:  function.MemFromClass(fp.memModel.PredictClass(x)),
		Duration: math.Max(0.05, fp.durModel.Predict(x)),
	}
}

// trainAndScore fits the three RF models on a 7:3 split, scores them,
// decides whether the function is size-related and with that whether the
// models will serve (always under MLOnly, never under HistOnly). Only if
// they will are the three refitted on the full dataset. Otherwise they
// keep their evaluation fits, which nothing reads: Predict walks the
// forests under useML only, and the cut lists are built under it too.
//
// The three fits of a round run side by side. Each forest draws from a
// rand.Source of its own, seeded from its Config, and writes its own nodes
// and nothing else; X, the labels and the split are only read. So no fit
// can tell whether or when the others ran, and the schedule shows in no
// node — only in the wall time.
func trainAndScore(fp *funcProfile, X [][]float64, cpuY, memY []int, durY []float64, cfg Config, seed int64) FuncReport {
	rng := rand.New(rand.NewSource(seed))
	train, test := mlkit.TrainTestSplit(len(X), 0.7, rng)

	fp.cpuModel = &mlkit.RandomForestClassifier{Config: mlkit.ForestConfig{Trees: 30, Seed: seed}}
	fp.memModel = &mlkit.RandomForestClassifier{Config: mlkit.ForestConfig{Trees: 30, Seed: seed + 1}}
	fp.durModel = &mlkit.RandomForestRegressor{Config: mlkit.ForestConfig{Trees: 30, Seed: seed + 2}}

	rep := FuncReport{TrainedOn: len(X)}
	sideBySide(
		func() { rep.DurationR2 = mlkit.EvaluateRegressor(fp.durModel, X, durY, train, test) },
		func() { rep.CPUAccuracy = mlkit.EvaluateClassifier(fp.cpuModel, X, cpuY, train, test) },
		func() { rep.MemAccuracy = mlkit.EvaluateClassifier(fp.memModel, X, memY, train, test) },
	)
	rep.SizeRelated = rep.CPUAccuracy >= cfg.AccThreshold && rep.MemAccuracy >= cfg.AccThreshold &&
		rep.DurationR2 >= cfg.R2Threshold
	rep.UseML = cfg.Mode == MLOnly || cfg.Mode == Auto && rep.SizeRelated
	if rep.UseML {
		sideBySide(
			func() { fp.durModel.FitRegressor(X, durY) },
			func() { fp.cpuModel.FitClassifier(X, cpuY) },
			func() { fp.memModel.FitClassifier(X, memY) },
		)
	}
	return rep
}

// sideBySide runs first on the calling goroutine and each of rest on one
// of its own, and returns once all have. The regressor's fit is the long
// one (its split search re-adds every sample per threshold), so it goes
// first and the two classifiers share whatever other processor there is.
func sideBySide(first func(), rest ...func()) {
	var wg sync.WaitGroup
	for _, f := range rest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	first()
	wg.Wait()
}

// features maps an input size to the model feature vector.
func features(size float64) [2]float64 {
	return [2]float64{size, math.Log1p(size)}
}

// Duplicate is the workload duplicator (§4.2): it scales the first
// invocation's input uniformly up to maxDup different sizes and labels
// each duplicate with the measured outcome of a pilot execution under
// maximum allocation.
//
// Duplicated payloads necessarily differ in content bytes (repetition or
// truncation changes the data), which is why content-sensitive functions
// defeat size-based profiling: their pilot labels vary with the content,
// not the size — exactly the signal the train/test metrics detect.
func Duplicate(spec *function.Spec, in function.Input, maxDup int, noise float64, rng *rand.Rand) (X [][]float64, cpuY, memY []int, durY []float64) {
	logMax := math.Log(float64(maxDup) * 10)
	for i := 0; i < maxDup; i++ {
		// Scale-and-duplicate: factors log-uniform in [1/(10·maxDup),
		// 10·maxDup], so the dataset covers both truncated and duplicated
		// payloads far beyond the observed input size — the first input
		// may come from either end of the function's real size range.
		factor := math.Exp(logMax * (2*rng.Float64() - 1))
		dup := function.Input{
			Size: in.Size * factor,
			Seed: in.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15), // content perturbed
		}
		actual := spec.Demand(dup) // pilot execution under max allocation
		// Peak measurements are quantized observations (busy-core counts,
		// allocator slabs) so they are exact; timing measurements carry
		// relative noise.
		dur := actual.Duration * (1 + noise*(2*rng.Float64()-1))
		x := features(dup.Size)
		X = append(X, x[:])
		cpuY = append(cpuY, function.CPUClass(actual.CPUPeak))
		memY = append(memY, function.MemClass(actual.MemPeak))
		durY = append(durY, dur)
	}
	return X, cpuY, memY, durY
}

func (r FuncReport) String() string {
	return fmt.Sprintf("%s: acc=%.2f/%.2f R²=%.2f size-related=%v ml=%v",
		r.App, r.CPUAccuracy, r.MemAccuracy, r.DurationR2, r.SizeRelated, r.UseML)
}
