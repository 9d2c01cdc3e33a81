package mlkit

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
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
		g := newGrower(X)
		g.sample(idx)
		gf, gt, gok := g.bestSplitGini(y, k, 0, len(idx))
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
	g := newGrower(X)
	for round := 0; round < 200; round++ {
		idx := make([]int, 2+rng.Intn(len(X)))
		for i := range idx {
			idx[i] = rng.Intn(len(X))
		}
		wf, wt, wok := scanSplitGini(X, y, idx, 5)
		g.sample(idx)
		gf, gt, gok := g.bestSplitGini(y, 5, 0, len(idx))
		if gok != wok || gf != wf || gt != wt {
			t.Fatalf("round %d: sweep = (%d, %v, %v), scan = (%d, %v, %v)", round, gf, gt, gok, wf, wt, wok)
		}
	}
}

// refGrower is the grower the presorted one replaced, kept verbatim as
// its reference: every node sorts its own samples, per candidate feature,
// in both split searches, and no candidate is ever skipped.
type refGrower struct {
	cfg   TreeConfig
	cols  [][]float64
	nodes []node
	sc    splitScratch
}

func (g *refGrower) growClassifier(y []int, k int, idx []int, depth int) {
	counts, _ := g.sc.counts(k)
	for c := range counts {
		counts[c] = 0
	}
	for _, i := range idx {
		counts[y[i]]++
	}
	maj, majN := 0, -1
	for c, n := range counts {
		if n > majN {
			maj, majN = c, n
		}
	}
	self := len(g.nodes)
	g.nodes = append(g.nodes, node{feat: -1, class: int32(maj)})
	pure := majN == len(idx)
	if pure || depth >= g.cfg.MaxDepth || len(idx) < 2*g.cfg.MinSamplesLeaf {
		return
	}
	feat, thr, ok := refBestSplitGini(g.cols, y, idx, k, g.cfg, &g.sc)
	if !ok {
		return
	}
	li, ri := refPartition(g.cols[feat], idx, thr, &g.sc)
	if len(li) < g.cfg.MinSamplesLeaf || len(ri) < g.cfg.MinSamplesLeaf {
		return
	}
	g.growClassifier(y, k, li, depth+1)
	right := len(g.nodes)
	g.growClassifier(y, k, ri, depth+1)
	g.nodes[self] = node{thr: thr, feat: int32(feat), right: int32(right)}
}

func (g *refGrower) growRegressor(y []float64, idx []int, depth int) {
	ys := g.sc.ys[:0]
	for _, i := range idx {
		ys = append(ys, y[i])
	}
	g.sc.ys = ys
	mean, variance := meanVar(ys)
	self := len(g.nodes)
	g.nodes = append(g.nodes, node{feat: -1, thr: mean})
	if variance == 0 || depth >= g.cfg.MaxDepth || len(idx) < 2*g.cfg.MinSamplesLeaf {
		return
	}
	feat, thr, ok := refBestSplitVariance(g.cols, ys, idx, g.cfg, &g.sc)
	if !ok {
		return
	}
	li, ri := refPartition(g.cols[feat], idx, thr, &g.sc)
	if len(li) < g.cfg.MinSamplesLeaf || len(ri) < g.cfg.MinSamplesLeaf {
		return
	}
	g.growRegressor(y, li, depth+1)
	right := len(g.nodes)
	g.growRegressor(y, ri, depth+1)
	g.nodes[self] = node{thr: thr, feat: int32(feat), right: int32(right)}
}

func refPartition(col []float64, idx []int, thr float64, sc *splitScratch) (left, right []int) {
	buf := sc.part[:0]
	w := 0
	for _, i := range idx {
		if col[i] <= thr {
			idx[w] = i
			w++
		} else {
			buf = append(buf, i)
		}
	}
	copy(idx[w:], buf)
	sc.part = buf[:0]
	return idx[:w], idx[w:]
}

func refBestSplitGini(cols [][]float64, y []int, idx []int, k int, cfg TreeConfig, sc *splitScratch) (feat int, thr float64, ok bool) {
	best := math.Inf(1)
	lc, rc := sc.counts(k)
	ps := sc.pairs[:0]
	for _, f := range candidateFeatures(len(cols), cfg, sc) {
		col := cols[f]
		for c := range lc {
			lc[c], rc[c] = 0, 0
		}
		ps = ps[:0]
		for _, i := range idx {
			rc[y[i]]++
			if v := col[i]; v == v {
				ps = append(ps, labelled{v, y[i]})
			}
		}
		slices.SortFunc(ps, func(a, b labelled) int { return cmp.Compare(a.v, b.v) })
		ln := 0
		for vi := 0; vi+1 < len(ps); vi++ {
			if ps[vi].v == ps[vi+1].v {
				continue
			}
			t := (ps[vi].v + ps[vi+1].v) / 2
			for ln < len(ps) && ps[ln].v <= t {
				lc[ps[ln].y]++
				rc[ps[ln].y]--
				ln++
			}
			rn := len(idx) - ln
			if ln == 0 || rn == 0 {
				continue
			}
			g := float64(ln)*gini(lc, ln) + float64(rn)*gini(rc, rn)
			if g < best {
				best, feat, thr, ok = g, f, t, true
			}
		}
	}
	sc.pairs = ps[:0]
	return feat, thr, ok
}

func refBestSplitVariance(cols [][]float64, ys []float64, idx []int, cfg TreeConfig, sc *splitScratch) (feat int, thr float64, ok bool) {
	best := math.Inf(1)
	vals, xs := sc.vals[:0], sc.xs[:0]
	for _, f := range candidateFeatures(len(cols), cfg, sc) {
		col := cols[f]
		xs = xs[:0]
		for _, i := range idx {
			xs = append(xs, col[i])
		}
		vals = append(vals[:0], xs...)
		sort.Float64s(vals)
		for vi := 0; vi+1 < len(vals); vi++ {
			if vals[vi] == vals[vi+1] {
				continue
			}
			t := (vals[vi] + vals[vi+1]) / 2
			var ls, lss, rs, rss float64
			ln := 0
			for j, v := range xs {
				yv := ys[j]
				if v <= t {
					ls += yv
					lss += yv * yv
					ln++
				} else {
					rs += yv
					rss += yv * yv
				}
			}
			rn := len(xs) - ln
			if ln == 0 || rn == 0 {
				continue
			}
			sse := (lss - ls*ls/float64(ln)) + (rss - rs*rs/float64(rn))
			if sse < best {
				best, feat, thr, ok = sse, f, t, true
			}
		}
	}
	sc.vals, sc.xs = vals[:0], xs[:0]
	return feat, thr, ok
}

// growBoth grows one tree over the samples idx with the production grower
// and with refGrower, under the same configuration and the same
// feature-subsampling stream, and fails unless the two node arrays agree
// bit for bit. The regression target is a fixed function of the label and
// the row whose sums depend on the order they are added in, so a node that
// received its samples in another order than the reference shows.
func growBoth(t *testing.T, k int, X [][]float64, y []int, idx []int, subsample bool, minLeaf int) {
	t.Helper()
	ry := make([]float64, len(y))
	for i, c := range y {
		ry[i] = 0.1*float64(c) + 1e-3*float64(i%11) + 1/float64(3+i%5)
	}
	config := func() TreeConfig {
		cfg := TreeConfig{MaxDepth: 12, MinSamplesLeaf: minLeaf}
		if subsample {
			cfg.MaxFeatures = 1
			cfg.featurePick = featurePicker(rand.New(rand.NewSource(5)), 1)
		}
		return cfg
	}
	for _, task := range []string{"classifier", "regressor"} {
		g := newGrower(X)
		g.cfg = config()
		ref := refGrower{cfg: config(), cols: columns(X)}
		if task == "classifier" {
			g.growClassifier(y, k, slices.Clone(idx))
			ref.growClassifier(y, k, slices.Clone(idx), 0)
		} else {
			g.growRegressor(ry, slices.Clone(idx))
			ref.growRegressor(ry, slices.Clone(idx), 0)
		}
		if len(g.nodes) != len(ref.nodes) {
			t.Fatalf("%s (subsample %v, min leaf %d): %d nodes, reference %d\nX=%v y=%v idx=%v",
				task, subsample, minLeaf, len(g.nodes), len(ref.nodes), X, y, idx)
		}
		for i, n := range g.nodes {
			w := ref.nodes[i]
			if math.Float64bits(n.thr) != math.Float64bits(w.thr) || n.feat != w.feat || n.right != w.right || n.class != w.class {
				t.Fatalf("%s (subsample %v, min leaf %d): node %d = %+v, reference %+v\nX=%v y=%v idx=%v",
					task, subsample, minLeaf, i, n, w, X, y, idx)
			}
		}
	}
}

// FuzzPresortedGrowMatchesPerNodeSort grows whole trees — classifier and
// regressor, all features and one random feature per node, leaves of one
// and of three samples — with the sort-once grower and with the
// sort-per-node grower it replaced. The cases are giniCase's.
func FuzzPresortedGrowMatchesPerNodeSort(f *testing.F) {
	up := math.Nextafter(1, 2)
	upup := math.Nextafter(up, 2)
	labels := func(n, k int) []int {
		y := make([]int, n)
		for i := range y {
			y[i] = (i*7 + i/3) % k
		}
		return y
	}
	// Heavy ties: three and two distinct values over twelve samples.
	ties := [][2]float64{}
	for i := 0; i < 12; i++ {
		ties = append(ties, [2]float64{float64(i % 3), float64(i % 2)})
	}
	f.Add(giniCase(4, ties, labels(12, 4), nil))
	// An all-equal column beside an informative one.
	f.Add(giniCase(2, [][2]float64{{5, 1}, {5, 2}, {5, 3}, {5, 4}, {5, 5}, {5, 6}}, []int{0, 0, 1, 1, 0, 1}, nil))
	// Two co-monotone columns, ties included: the second is never scanned
	// after the first.
	var co, swapped [][2]float64
	for i := 0; i < 16; i++ {
		v := float64((i * 5) % 13)
		co = append(co, [2]float64{v, math.Log1p(v)})
		swapped = append(swapped, [2]float64{v, math.Log1p(v)})
	}
	f.Add(giniCase(3, co, labels(16, 3), nil))
	// The same but for one swapped pair: both columns are scanned.
	swapped[2][1], swapped[5][1] = swapped[5][1], swapped[2][1]
	f.Add(giniCase(3, swapped, labels(16, 3), nil))
	// Co-monotone, but a midpoint of the first column rounds onto its
	// upper value (and takes the duplicates along) where the second
	// column's does not: the columns cut differently, both are scanned.
	f.Add(giniCase(2, [][2]float64{{up, 1}, {upup, 2}, {upup, 2}, {up, 1}, {3, 3}, {0, 0}}, []int{0, 1, 0, 0, 1, 1}, nil))
	// Non-finite values: NaN never goes left, ±Inf midpoints overflow.
	f.Add(giniCase(2, [][2]float64{{math.NaN(), math.Inf(-1)}, {1, math.Inf(1)}, {2, 0}, {math.NaN(), 1}, {3, math.NaN()}, {-1, 2}},
		[]int{0, 1, 0, 1, 1, 0}, nil))
	f.Add(giniCase(2, [][2]float64{{math.MaxFloat64, -math.MaxFloat64}, {math.MaxFloat64 / 2, -math.MaxFloat64 / 2}, {1, -1}, {-math.MaxFloat64, 4}},
		[]int{0, 1, 1, 0}, nil))
	// Bootstrap duplicates: the sample list repeats and omits rows.
	f.Add(giniCase(3, [][2]float64{{1, 4}, {2, 3}, {3, 2}, {4, 1}, {5, 0}}, []int{0, 1, 2, 1, 0}, []int{3, 3, 0, 2, 2, 2, 0, 4, 4, 3}))

	f.Fuzz(func(t *testing.T, b []byte) {
		k, X, y, idx := parseGiniCase(b)
		if X == nil {
			return
		}
		for _, subsample := range []bool{false, true} {
			for _, minLeaf := range []int{1, 3} {
				growBoth(t, k, X, y, idx, subsample, minLeaf)
			}
		}
	})
}

// TestCoMonotoneColumnsShareAnOrder pins which columns newGrower lets
// stand in for one another, since a wrong yes would go unnoticed wherever
// the reference happens to agree.
func TestCoMonotoneColumnsShareAnOrder(t *testing.T) {
	up := math.Nextafter(1, 2)
	upup := math.Nextafter(up, 2)
	for name, tc := range map[string]struct {
		rows [][]float64
		like []int
	}{
		"size and log1p(size)":      {[][]float64{{3, math.Log1p(3)}, {1, math.Log1p(1)}, {3, math.Log1p(3)}, {40, math.Log1p(40)}}, []int{0, 0}},
		"three of a kind":           {[][]float64{{1, 10, -1}, {2, 20, 0}, {0, 5, -7}}, []int{0, 0, 0}},
		"decreasing":                {[][]float64{{1, 3}, {2, 2}, {3, 1}}, []int{0, 1}},
		"a tie on one side only":    {[][]float64{{1, 1}, {2, 1}, {3, 2}}, []int{0, 1}},
		"one swapped pair":          {[][]float64{{1, 1}, {2, 3}, {3, 2}, {4, 4}}, []int{0, 1}},
		"a NaN":                     {[][]float64{{1, 1}, {2, 2}, {math.NaN(), math.NaN()}}, []int{0, 1}},
		"an infinity":               {[][]float64{{1, 1}, {2, 2}, {math.Inf(1), 3}}, []int{0, 1}},
		"a midpoint that rounds up": {[][]float64{{up, 1}, {upup, 2}, {3, 3}}, []int{0, 1}},
		"a midpoint that overflows": {[][]float64{{math.MaxFloat64, 2}, {math.MaxFloat64 / 2, 1}}, []int{0, 1}},
		"the second pair of three":  {[][]float64{{1, 9, 2}, {2, 4, 4}, {3, 7, 8}}, []int{0, 1, 0}},
		"a single row":              {[][]float64{{1, 2}}, []int{0, 0}},
	} {
		if got := newGrower(tc.rows).like; !slices.Equal(got, tc.like) {
			t.Errorf("%s: like = %v, want %v", name, got, tc.like)
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
