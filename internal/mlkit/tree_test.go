package mlkit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scanSplitGini is the reference split search: for every candidate
// threshold it recounts every sample. It is the implementation
// bestSplitGini replaced, kept verbatim (row-major X, all features) so the
// sweep can be checked against it.
func scanSplitGini(X [][]float64, y []int, idx []int, k int) (feat int, thr float64, ok bool) {
	best := math.Inf(1)
	var vals []float64
	lc, rc := make([]int, k), make([]int, k)
	for f := range X[0] {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		for vi := 0; vi+1 < len(vals); vi++ {
			if vals[vi] == vals[vi+1] {
				continue
			}
			t := (vals[vi] + vals[vi+1]) / 2
			for c := range lc {
				lc[c], rc[c] = 0, 0
			}
			ln, rn := 0, 0
			for _, i := range idx {
				if X[i][f] <= t {
					lc[y[i]]++
					ln++
				} else {
					rc[y[i]]++
					rn++
				}
			}
			if ln == 0 || rn == 0 {
				continue
			}
			g := float64(ln)*gini(lc, ln) + float64(rn)*gini(rc, rn)
			if g < best {
				best, feat, thr, ok = g, f, t, true
			}
		}
	}
	return feat, thr, ok
}

// giniCase packs a two-feature training set and a sample list into the
// byte string the fuzzer mutates: a class count, a sample count, then per
// sample two float64 and a label, then the sample indices (empty: all;
// at most 512 are read, the reference scan being quadratic in them).
func giniCase(k int, X [][2]float64, y []int, idx []int) []byte {
	b := []byte{byte(k), byte(len(X))}
	for i, x := range X {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x[0]))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x[1]))
		b = append(b, byte(y[i]))
	}
	for _, i := range idx {
		b = append(b, byte(i))
	}
	return b
}

func parseGiniCase(b []byte) (k int, X [][]float64, y []int, idx []int) {
	if len(b) < 2 {
		return 0, nil, nil, nil
	}
	k, n := int(b[0]%8)+1, int(b[1])
	b = b[2:]
	if n == 0 || len(b) < 17*n {
		return 0, nil, nil, nil
	}
	for i := 0; i < n; i++ {
		X = append(X, []float64{
			math.Float64frombits(binary.LittleEndian.Uint64(b)),
			math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		})
		y = append(y, int(b[16])%k)
		b = b[17:]
	}
	for _, i := range b[:min(len(b), 512)] {
		idx = append(idx, int(i)%n)
	}
	if len(idx) == 0 {
		idx = identity(n)
	}
	return k, X, y, idx
}

func FuzzGiniSweepMatchesScan(f *testing.F) {
	up := math.Nextafter(1, 2)
	// Heavy ties: three distinct values over twelve samples.
	ties := [][2]float64{}
	tiesY := []int{}
	for i := 0; i < 12; i++ {
		ties = append(ties, [2]float64{float64(i % 3), float64(i % 2)})
		tiesY = append(tiesY, i%4)
	}
	f.Add(giniCase(4, ties, tiesY, nil))
	// All-equal column beside an informative one.
	f.Add(giniCase(2, [][2]float64{{5, 1}, {5, 2}, {5, 3}, {5, 4}}, []int{0, 0, 1, 1}, nil))
	// k = 1: every split scores 0, the first threshold must win.
	f.Add(giniCase(1, [][2]float64{{3, 9}, {1, 8}, {2, 7}}, []int{0, 0, 0}, nil))
	// Bootstrap duplicates: the sample list repeats and omits rows.
	f.Add(giniCase(3, [][2]float64{{1, 4}, {2, 3}, {3, 2}, {4, 1}}, []int{0, 1, 2, 1}, []int{3, 3, 0, 2, 2, 2, 0}))
	// Adjacent floats: (1 + up)/2 rounds to even, which is 1 — and for the
	// pair one ulp further up it rounds onto the upper value.
	f.Add(giniCase(2, [][2]float64{{1, 0}, {up, 0}, {up, 0}, {1, 0}}, []int{0, 1, 1, 0}, nil))
	upup := math.Nextafter(up, 2)
	f.Add(giniCase(2, [][2]float64{{up, 0}, {upup, 0}, {upup, 0}, {up, 0}, {3, 0}}, []int{0, 1, 0, 0, 1}, nil))
	// Non-finite values: NaN never goes left, ±Inf midpoints overflow.
	f.Add(giniCase(2, [][2]float64{{math.NaN(), math.Inf(-1)}, {1, math.Inf(1)}, {2, 0}, {math.NaN(), 1}},
		[]int{0, 1, 0, 1}, nil))
	f.Add(giniCase(2, [][2]float64{{math.MaxFloat64, -math.MaxFloat64}, {math.MaxFloat64 / 2, -math.MaxFloat64 / 2}, {1, -1}},
		[]int{0, 1, 1}, nil))

	f.Fuzz(func(t *testing.T, b []byte) {
		k, X, y, idx := parseGiniCase(b)
		if X == nil {
			return
		}
		wf, wt, wok := scanSplitGini(X, y, idx, k)
		var sc splitScratch
		gf, gt, gok := bestSplitGini(columns(X), y, idx, k, TreeConfig{}, &sc)
		if gok != wok || gf != wf || math.Float64bits(gt) != math.Float64bits(wt) {
			t.Fatalf("sweep = (%d, %v, %v), scan = (%d, %v, %v)\nX=%v y=%v idx=%v", gf, gt, gok, wf, wt, wok, X, y, idx)
		}
	})
}

// TestGiniSweepMatchesScanOnBootstraps runs the differential check at the
// size the profiler trains at: 100 samples of {size, log1p(size)},
// resampled with replacement, at every node of a grown tree's worth of
// shrinking subsets.
func TestGiniSweepMatchesScanOnBootstraps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X, y := synthClassification(100, 5, rng)
	cols := columns(X)
	var sc splitScratch
	for round := 0; round < 200; round++ {
		idx := make([]int, 2+rng.Intn(len(X)))
		for i := range idx {
			idx[i] = rng.Intn(len(X))
		}
		wf, wt, wok := scanSplitGini(X, y, idx, 5)
		gf, gt, gok := bestSplitGini(cols, y, idx, 5, TreeConfig{}, &sc)
		if gok != wok || gf != wf || gt != wt {
			t.Fatalf("round %d: sweep = (%d, %v, %v), scan = (%d, %v, %v)", round, gf, gt, gok, wf, wt, wok)
		}
	}
}

// TestForestPredictionsGolden pins the forests' predictions to a digest
// recorded on the pointer-linked trees the flat node array replaced: same
// training set, seeds and probes, so any drift in split search, bootstrap
// order, node layout or the walk shows up here before it shows up as a
// broken replay digest. Probes sit on thresholds and one ulp either side.
func TestForestPredictionsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	X, cy := synthClassification(100, 5, rng)
	ry := make([]float64, len(X))
	for i, x := range X {
		ry[i] = (3*x[0] + 7) * (1 + 0.03*(2*rng.Float64()-1))
	}
	cls := &RandomForestClassifier{Config: ForestConfig{Trees: 30, Seed: 7}}
	sub := &RandomForestClassifier{Config: ForestConfig{Trees: 10, MaxFeatures: 1, Seed: 9}}
	reg := &RandomForestRegressor{Config: ForestConfig{Trees: 30, Seed: 8}}
	cls.FitClassifier(X, cy)
	sub.FitClassifier(X, cy)
	reg.FitRegressor(X, ry)

	var probes [][2]float64
	for f := 0; f < 2; f++ {
		cuts := reg.AppendThresholds(sub.AppendThresholds(cls.AppendThresholds(nil, f), f), f)
		sort.Float64s(cuts)
		for j := 0; j < 100; j++ {
			thr := cuts[j*len(cuts)/100]
			for _, v := range []float64{thr, math.Nextafter(thr, math.Inf(-1)), math.Nextafter(thr, math.Inf(1))} {
				if f == 0 {
					probes = append(probes, [2]float64{v, math.Log1p(v)})
				} else {
					probes = append(probes, [2]float64{math.Expm1(v), v})
				}
			}
		}
	}
	for len(probes) < 1000 {
		v := rng.Float64() * 60
		probes = append(probes, [2]float64{v, math.Log1p(v)})
	}

	h := sha256.New()
	var buf [8]byte
	for _, p := range probes {
		x := p[:]
		binary.LittleEndian.PutUint64(buf[:], uint64(cls.PredictClass(x)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(sub.PredictClass(x)))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(reg.Predict(x)))
		h.Write(buf[:])
	}
	const want = "ef5b7c89c9f41acc6a6acf24bdec4b9ff8d2bc088a8740e917f20e852a955564"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("forest predictions digest = %s, want %s", got, want)
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	x := []float64{1, 2}
	for name, predict := range map[string]func(){
		"RandomForestClassifier": func() { new(RandomForestClassifier).PredictClass(x) },
		"RandomForestRegressor":  func() { new(RandomForestRegressor).Predict(x) },
		"DecisionTreeClassifier": func() { new(DecisionTreeClassifier).PredictClass(x) },
		"DecisionTreeRegressor":  func() { new(DecisionTreeRegressor).Predict(x) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "mlkit: Predict before Fit" {
					t.Errorf("%s: recovered %v, want the Predict-before-Fit panic", name, r)
				}
			}()
			predict()
		}()
	}
}

func TestForestPredictDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	X, y := synthClassification(200, 5, rng)
	cls := &RandomForestClassifier{Config: ForestConfig{Trees: 10, Seed: 1}}
	cls.FitClassifier(X, y)
	x := []float64{25, math.Log1p(25)}
	if n := testing.AllocsPerRun(100, func() { cls.PredictClass(x) }); n != 0 {
		t.Fatalf("PredictClass allocates %v times per call", n)
	}
}
