package profiler

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"libra/internal/function"
	"libra/internal/mlkit"
)

func mustApp(t *testing.T, name string) *function.Spec {
	t.Helper()
	s, ok := function.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	return s
}

func TestFirstInvocationServedWithUserResources(t *testing.T) {
	p := New(Config{Seed: 1})
	dh := mustApp(t, "DH")
	in := function.Input{Size: 4000, Seed: 9}
	pred, train := p.Predict(dh, in)
	if pred.Source != SourceFirstSeen || pred.Reliable {
		t.Fatalf("first prediction = %+v, want unreliable first-seen", pred)
	}
	if pred.Demand.CPUPeak != dh.UserAlloc.CPU || pred.Demand.MemPeak != dh.UserAlloc.Mem {
		t.Fatalf("first prediction demand = %+v, want user alloc", pred.Demand)
	}
	if train != OfflineTrainOverhead {
		t.Fatalf("train overhead = %g, want %g", train, OfflineTrainOverhead)
	}
	// Second call must not retrain.
	_, train = p.Predict(dh, in)
	if train != 0 {
		t.Fatal("second prediction paid training overhead again")
	}
}

func TestSizeRelatedAppsUseML(t *testing.T) {
	p := New(Config{Seed: 2})
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"UL", "TN", "CP", "DV", "DH"} {
		app := mustApp(t, name)
		p.Predict(app, app.SampleInput(rng))
		rep, ok := p.Report(name)
		if !ok {
			t.Fatalf("%s: no report after first invocation", name)
		}
		if !rep.SizeRelated || !rep.UseML {
			t.Errorf("%s: report %v — want size-related with ML", name, rep)
		}
		if rep.CPUAccuracy < 0.8 || rep.MemAccuracy < 0.8 || rep.DurationR2 < 0.9 {
			t.Errorf("%s: weak metrics %v", name, rep)
		}
	}
}

func TestSizeUnrelatedAppsUseHistograms(t *testing.T) {
	p := New(Config{Seed: 4})
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"VP", "IR", "GP", "GM", "GB"} {
		app := mustApp(t, name)
		p.Predict(app, app.SampleInput(rng))
		rep, _ := p.Report(name)
		if rep.SizeRelated || rep.UseML {
			t.Errorf("%s: report %v — want size-unrelated with histograms", name, rep)
		}
	}
}

func TestMLPredictionAccuracy(t *testing.T) {
	p := New(Config{Seed: 6})
	dh := mustApp(t, "DH")
	rng := rand.New(rand.NewSource(7))
	p.Predict(dh, dh.SampleInput(rng)) // trigger training
	good := 0
	n := 200
	for i := 0; i < n; i++ {
		in := dh.SampleInput(rng)
		pred, _ := p.Predict(dh, in)
		if pred.Source != SourceML || !pred.Reliable {
			t.Fatalf("prediction source = %v", pred.Source)
		}
		actual := dh.Demand(in)
		// Predicted CPU class ceiling should cover the actual peak most of
		// the time and not exceed it by more than one class.
		if pred.Demand.CPUPeak >= actual.CPUPeak &&
			pred.Demand.CPUPeak <= actual.CPUPeak+2000 {
			good++
		}
	}
	if frac := float64(good) / float64(n); frac < 0.8 {
		t.Fatalf("only %.0f%% of ML CPU predictions within one class of truth", frac*100)
	}
}

func TestMLDurationPrediction(t *testing.T) {
	p := New(Config{Seed: 8})
	cp := mustApp(t, "CP")
	rng := rand.New(rand.NewSource(9))
	p.Predict(cp, cp.SampleInput(rng))
	var relErrSum float64
	n := 100
	for i := 0; i < n; i++ {
		in := cp.SampleInput(rng)
		pred, _ := p.Predict(cp, in)
		actual := cp.Demand(in)
		relErrSum += math.Abs(pred.Demand.Duration-actual.Duration) / actual.Duration
	}
	if avg := relErrSum / float64(n); avg > 0.25 {
		t.Fatalf("mean relative duration error = %.2f, want ≤0.25", avg)
	}
}

func TestHistogramWarmupThenEstimates(t *testing.T) {
	p := New(Config{Seed: 10, HistWindow: 5})
	vp := mustApp(t, "VP")
	rng := rand.New(rand.NewSource(11))
	p.Predict(vp, vp.SampleInput(rng)) // first-seen + training
	// During the warm-up window predictions ask for max allocation.
	for i := 0; i < 5; i++ {
		in := vp.SampleInput(rng)
		pred, _ := p.Predict(vp, in)
		if pred.Source != SourceWarmup || pred.Reliable {
			t.Fatalf("warm-up prediction %d = %+v", i, pred)
		}
		if pred.Demand.CPUPeak != function.MaxAlloc.CPU {
			t.Fatalf("warm-up should serve max allocation, got %v", pred.Demand.CPUPeak)
		}
		p.Observe(vp, in, vp.Demand(in))
	}
	in := vp.SampleInput(rng)
	pred, _ := p.Predict(vp, in)
	if pred.Source != SourceHistogram || !pred.Reliable {
		t.Fatalf("post-warm-up prediction = %+v, want reliable histogram", pred)
	}
	if pred.Demand.CPUPeak <= 0 || pred.Demand.Duration <= 0 {
		t.Fatalf("degenerate histogram estimate %+v", pred.Demand)
	}
}

func TestHistogramEstimatesAreConservative(t *testing.T) {
	p := New(Config{Seed: 12, HistWindow: 5})
	gp := mustApp(t, "GP")
	rng := rand.New(rand.NewSource(13))
	p.Predict(gp, gp.SampleInput(rng))
	var durs []float64
	var maxCPU float64
	for i := 0; i < 200; i++ {
		in := gp.SampleInput(rng)
		actual := gp.Demand(in)
		p.Observe(gp, in, actual)
		durs = append(durs, actual.Duration)
		if c := float64(actual.CPUPeak); c > maxCPU {
			maxCPU = c
		}
	}
	pred, _ := p.Predict(gp, gp.SampleInput(rng))
	// P99 CPU peak should be near the observed maximum (tail percentile).
	if float64(pred.Demand.CPUPeak) < 0.7*maxCPU {
		t.Fatalf("P99 CPU estimate %v far below observed max %.0f", pred.Demand.CPUPeak, maxCPU)
	}
	// P5 duration should be below the typical duration (head percentile).
	var mean float64
	for _, d := range durs {
		mean += d
	}
	mean /= float64(len(durs))
	if pred.Demand.Duration > mean {
		t.Fatalf("P5 duration estimate %.2f above mean %.2f — not conservative", pred.Demand.Duration, mean)
	}
}

func TestModeOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	vp := mustApp(t, "VP")
	dh := mustApp(t, "DH")

	ml := New(Config{Seed: 15, Mode: MLOnly})
	ml.Predict(vp, vp.SampleInput(rng))
	if rep, _ := ml.Report("VP"); !rep.UseML {
		t.Fatal("MLOnly profiler did not force ML for VP")
	}

	hist := New(Config{Seed: 16, Mode: HistOnly})
	hist.Predict(dh, dh.SampleInput(rng))
	if rep, _ := hist.Report("DH"); rep.UseML {
		t.Fatal("HistOnly profiler used ML for DH")
	}
}

func TestObserveUnknownFunctionIsNoop(t *testing.T) {
	p := New(Config{Seed: 17})
	dh := mustApp(t, "DH")
	p.Observe(dh, function.Input{Size: 1}, function.Demand{}) // must not panic
	if _, ok := p.Report("DH"); ok {
		t.Fatal("Observe created a profile")
	}
}

func TestPredictionsCounter(t *testing.T) {
	p := New(Config{Seed: 18})
	dh := mustApp(t, "DH")
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 5; i++ {
		p.Predict(dh, dh.SampleInput(rng))
	}
	if p.Predictions() != 5 {
		t.Fatalf("Predictions = %d, want 5", p.Predictions())
	}
}

func TestDuplicateDatasetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dh := mustApp(t, "DH")
	X, cpuY, memY, durY := Duplicate(dh, function.Input{Size: 500, Seed: 1}, 100, 0.03, rng)
	if len(X) != 100 || len(cpuY) != 100 || len(memY) != 100 || len(durY) != 100 {
		t.Fatalf("dataset sizes = %d/%d/%d/%d, want 100 each", len(X), len(cpuY), len(memY), len(durY))
	}
	for i := range X {
		if len(X[i]) != 2 {
			t.Fatalf("feature dim = %d, want 2", len(X[i]))
		}
		if cpuY[i] < 0 || cpuY[i] >= function.NumCPUClasses {
			t.Fatalf("cpu class %d out of range", cpuY[i])
		}
		if memY[i] < 0 || memY[i] >= function.NumMemClasses {
			t.Fatalf("mem class %d out of range", memY[i])
		}
		if durY[i] <= 0 {
			t.Fatalf("non-positive duration label")
		}
	}
}

func TestWindowEstimator(t *testing.T) {
	w := NewWindowEstimator(3)
	dh := mustApp(t, "DH")
	in := function.Input{Size: 100}

	pred, _ := w.Predict(dh, in)
	if pred.Reliable {
		t.Fatal("empty window should be unreliable")
	}
	if pred.Demand.CPUPeak != dh.UserAlloc.CPU {
		t.Fatal("empty-window prediction should be the user allocation")
	}

	w.Observe(dh, in, function.Demand{CPUPeak: 1000, MemPeak: 100, Duration: 1})
	w.Observe(dh, in, function.Demand{CPUPeak: 3000, MemPeak: 50, Duration: 4})
	w.Observe(dh, in, function.Demand{CPUPeak: 2000, MemPeak: 300, Duration: 2})
	pred, _ = w.Predict(dh, in)
	want := function.Demand{CPUPeak: 3000, MemPeak: 300, Duration: 4}
	if pred.Demand != want || !pred.Reliable {
		t.Fatalf("window-max prediction = %+v, want %+v", pred.Demand, want)
	}

	// Window evicts: after 3 more observations the old max is gone.
	for i := 0; i < 3; i++ {
		w.Observe(dh, in, function.Demand{CPUPeak: 500, MemPeak: 64, Duration: 0.5})
	}
	pred, _ = w.Predict(dh, in)
	if pred.Demand.CPUPeak != 500 {
		t.Fatalf("window did not evict: %+v", pred.Demand)
	}
}

// Windows are kept per spec, found by its identity: what one function
// did says nothing about another, whatever the two are called.
func TestWindowEstimatorKeepsFunctionsApart(t *testing.T) {
	w := NewWindowEstimator(3)
	dh, vp := mustApp(t, "DH"), mustApp(t, "VP")
	twin := *dh // registered nowhere, same name
	in := function.Input{Size: 100}
	w.Observe(dh, in, function.Demand{CPUPeak: 3000, MemPeak: 300, Duration: 4})
	for _, other := range []*function.Spec{vp, &twin} {
		if pred, _ := w.Predict(other, in); pred.Reliable || pred.Demand.CPUPeak != other.UserAlloc.CPU {
			t.Fatalf("%s predicted from DH's window: %+v", other.Name, pred)
		}
	}
	w.Observe(vp, in, function.Demand{CPUPeak: 500, MemPeak: 64, Duration: 1})
	w.Observe(&twin, in, function.Demand{CPUPeak: 700, MemPeak: 32, Duration: 2})
	for spec, want := range map[*function.Spec]function.Demand{
		dh:    {CPUPeak: 3000, MemPeak: 300, Duration: 4},
		vp:    {CPUPeak: 500, MemPeak: 64, Duration: 1},
		&twin: {CPUPeak: 700, MemPeak: 32, Duration: 2},
	} {
		if pred, _ := w.Predict(spec, in); !pred.Reliable || pred.Demand != want {
			t.Errorf("%s: window-max prediction %+v, want %+v", spec.Name, pred.Demand, want)
		}
	}
}

func TestWindowEstimatorDefaultSize(t *testing.T) {
	w := NewWindowEstimator(0)
	if w.n != 5 {
		t.Fatalf("default window = %d, want 5", w.n)
	}
}

func TestProfilerDeterministicUnderSeed(t *testing.T) {
	dh := mustApp(t, "DH")
	mk := func() Prediction {
		p := New(Config{Seed: 42})
		rng := rand.New(rand.NewSource(43))
		p.Predict(dh, dh.SampleInput(rng))
		pred, _ := p.Predict(dh, function.Input{Size: 2500, Seed: 77})
		return pred
	}
	a, b := mk(), mk()
	if a.Demand != b.Demand {
		t.Fatalf("same-seed profilers disagree: %+v vs %+v", a.Demand, b.Demand)
	}
}

func BenchmarkPredictML(b *testing.B) {
	p := New(Config{Seed: 1})
	dh, _ := function.ByName("DH")
	rng := rand.New(rand.NewSource(2))
	p.Predict(dh, dh.SampleInput(rng))
	in := function.Input{Size: 3000, Seed: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(dh, in)
	}
}

func BenchmarkOfflineProfile(b *testing.B) {
	dh, _ := function.ByName("DH")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		p := New(Config{Seed: int64(i)})
		p.Predict(dh, dh.SampleInput(rng))
	}
}

// TestPredictMemoMatchesWalk checks the serving path against the thing it
// memoises. Every catalogue app is forced onto its forests; sizes are the
// app's own, plus every cut of both features mapped back to a size and
// one ulp either side of it (the only places a cell boundary can be off
// by one), plus the sizes no trace produces. Each is predicted twice, so
// both the miss and the hit are compared with a fresh walk.
func TestPredictMemoMatchesWalk(t *testing.T) {
	for _, app := range function.Apps() {
		p := New(Config{Seed: 21, Mode: MLOnly})
		rng := rand.New(rand.NewSource(22))
		p.Predict(app, app.SampleInput(rng))
		fp := p.profileOf(app)

		sizes := []float64{0, math.Copysign(0, -1), -0.5, -1, -3, 1e300, -1e300,
			math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
		for i := 0; i < 2000; i++ {
			sizes = append(sizes, app.SampleInput(rng).Size)
		}
		for f, cuts := range fp.cuts {
			if !sort.Float64sAreSorted(cuts) {
				t.Fatalf("%s: cuts[%d] not sorted", app.Name, f)
			}
			for _, c := range cuts {
				if f == 1 {
					c = math.Expm1(c)
				}
				sizes = append(sizes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			}
		}

		for _, size := range sizes {
			x := features(size)
			want := fp.walk(x[:])
			for pass := 0; pass < 2; pass++ {
				got, _ := p.Predict(app, function.Input{Size: size})
				if got.Source != SourceML || !got.Reliable {
					t.Fatalf("%s size %v: prediction %+v is not an ML one", app.Name, size, got)
				}
				if got.Demand != want {
					t.Fatalf("%s size %v pass %d: memoised %+v, walk %+v", app.Name, size, pass, got.Demand, want)
				}
			}
		}
		nodes := fp.cpuModel.Nodes() + fp.memModel.Nodes() + fp.durModel.Nodes()
		if len(fp.memo) == 0 || len(fp.memo) > nodes {
			t.Fatalf("%s: memo holds %d cells for %d tree nodes", app.Name, len(fp.memo), nodes)
		}
	}
}

// TestPredictMemoIsBounded feeds an ML-served app more distinct cells
// than memoMax allows and checks the table stops growing while the
// predictions stay those of the walk.
func TestPredictMemoIsBounded(t *testing.T) {
	p := New(Config{Seed: 23, Mode: MLOnly})
	dh := mustApp(t, "DH")
	p.Predict(dh, function.Input{Size: 4000, Seed: 9})
	fp := p.profileOf(dh)
	fp.memoMax = 3
	for _, c := range fp.cuts[0] {
		x := features(c)
		if got, _ := p.Predict(dh, function.Input{Size: c}); got.Demand != fp.walk(x[:]) {
			t.Fatalf("size %v: %+v differs from the walk", c, got.Demand)
		}
	}
	if len(fp.memo) != 3 {
		t.Fatalf("memo holds %d cells, bound is 3", len(fp.memo))
	}
}

func TestPredictDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := New(Config{Seed: 25})
	dh, vp := mustApp(t, "DH"), mustApp(t, "VP")
	p.Predict(dh, dh.SampleInput(rng))
	p.Predict(vp, vp.SampleInput(rng))

	in := function.Input{Size: 3000, Seed: 5}
	if pred, _ := p.Predict(dh, in); pred.Source != SourceML {
		t.Fatalf("DH served from %v", pred.Source)
	}
	if n := testing.AllocsPerRun(100, func() { p.Predict(dh, in) }); n != 0 {
		t.Errorf("ML hit: %v allocs per Predict", n)
	}

	in = vp.SampleInput(rng)
	if pred, _ := p.Predict(vp, in); pred.Source != SourceWarmup {
		t.Fatalf("VP served from %v before its window filled", pred.Source)
	}
	if n := testing.AllocsPerRun(100, func() { p.Predict(vp, in) }); n != 0 {
		t.Errorf("warm-up: %v allocs per Predict", n)
	}
	for i := 0; i < 10; i++ {
		p.Observe(vp, in, vp.Demand(in))
	}
	if pred, _ := p.Predict(vp, in); pred.Source != SourceHistogram {
		t.Fatalf("VP served from %v after its window filled", pred.Source)
	}
	if n := testing.AllocsPerRun(100, func() { p.Predict(vp, in) }); n != 0 {
		t.Errorf("histogram: %v allocs per Predict", n)
	}
}

// trainedModels is what trainAndScore leaves behind for one function.
type trainedModels struct {
	report        FuncReport
	cpu, mem, dur any
	cuts          [2][]float64
}

// trainCatalogue profiles every catalogue function on one profiler, in
// catalogue order, and returns what each training produced. DeepEqual on
// the forests reaches their node arrays, roots and class counts.
func trainCatalogue(t *testing.T, seed int64) []trainedModels {
	t.Helper()
	p := New(Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))
	var out []trainedModels
	for _, app := range function.Apps() {
		p.Predict(app, app.SampleInput(rng))
		fp := p.profileOf(app)
		out = append(out, trainedModels{fp.report, fp.cpuModel, fp.memModel, fp.durModel, fp.cuts})
	}
	return out
}

// The three fits of a round run on goroutines of their own; which of them
// the scheduler runs first, and whether at the same time, must not show
// in anything training produces.
func TestTrainAndScoreIsScheduleIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := trainCatalogue(t, 31)
	runtime.GOMAXPROCS(4)
	parallel := trainCatalogue(t, 31)
	for i, app := range function.Apps() {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s: training at GOMAXPROCS 1 and at 4 differ: %v and %v", app.Name, serial[i].report, parallel[i].report)
		}
	}
}

// An application that fails the thresholds is served by its histograms,
// so its forests are fitted for the evaluation only, three times and not
// six: they are the ones grown on the training split, not the ones grown
// on every duplicate. And skipping the refit takes nothing from
// Profiler.rng, which each function draws from for its duplicates and then
// once for its model seed — the function profiled next gets the training
// set and the seed it always got.
func TestAutoModeSkipsUnusedRefit(t *testing.T) {
	const seed = 4
	vp, dh := mustApp(t, "VP"), mustApp(t, "DH")
	inVP, inDH := function.Input{Size: 2000, Seed: 3}, function.Input{Size: 4000, Seed: 9}
	p := New(Config{Seed: seed})
	p.Predict(vp, inVP)
	p.Predict(dh, inDH)
	cfg := p.cfg

	// VP's training by hand, on the profiler's random stream.
	rng := rand.New(rand.NewSource(seed))
	X, _, _, durY := Duplicate(vp, inVP, cfg.DuplicateMax, cfg.PilotNoise, rng)
	modelSeed := rng.Int63()
	train, _ := mlkit.TrainTestSplit(len(X), 0.7, rand.New(rand.NewSource(modelSeed)))
	onSplit := &mlkit.RandomForestRegressor{Config: mlkit.ForestConfig{Trees: 30, Seed: modelSeed + 2}}
	onSplit.FitRegressor(mlkit.Rows(X, train), mlkit.FloatsAt(durY, train))
	onAll := &mlkit.RandomForestRegressor{Config: mlkit.ForestConfig{Trees: 30, Seed: modelSeed + 2}}
	onAll.FitRegressor(X, durY)

	got := p.profileOf(vp)
	if got.useML || got.report.SizeRelated {
		t.Fatalf("VP is served by its forests: %v", got.report)
	}
	if !reflect.DeepEqual(got.durModel, onSplit) {
		t.Error("VP: the duration forest is not the one grown on the training split")
	}
	if reflect.DeepEqual(got.durModel, onAll) {
		t.Error("VP: the duration forest was refitted on the whole dataset")
	}

	// DH's, continuing on the same stream.
	X, cpuY, memY, durY := Duplicate(dh, inDH, cfg.DuplicateMax, cfg.PilotNoise, rng)
	want := &funcProfile{}
	want.report = trainAndScore(want, X, cpuY, memY, durY, cfg, rng.Int63())
	want.report.App = dh.Name
	next := p.profileOf(dh)
	if !next.useML {
		t.Fatalf("DH is not served by its forests: %v", next.report)
	}
	if !reflect.DeepEqual(next.report, want.report) ||
		!reflect.DeepEqual(next.durModel, want.durModel) ||
		!reflect.DeepEqual(next.cpuModel, want.cpuModel) ||
		!reflect.DeepEqual(next.memModel, want.memModel) {
		t.Errorf("DH, profiled after VP, differs from its training by hand: %v, want %v", next.report, want.report)
	}
	onAll = &mlkit.RandomForestRegressor{Config: next.durModel.Config}
	onAll.FitRegressor(X, durY)
	if !reflect.DeepEqual(next.durModel, onAll) {
		t.Error("DH: the duration forest that serves is not the one grown on the whole dataset")
	}
}
