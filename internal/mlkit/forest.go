package mlkit

import "math/rand"

// ForestConfig parametrizes a random forest. Zero values select the
// defaults noted per field.
type ForestConfig struct {
	Trees          int   // default 40
	MaxDepth       int   // default 12
	MinSamplesLeaf int   // default 1
	MaxFeatures    int   // default: all features
	Seed           int64 // bagging/feature-subsampling seed
}

func (c *ForestConfig) defaults() {
	if c.Trees == 0 {
		c.Trees = 40
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 1
	}
}

// forest is the fitted state both ensembles share: every tree's nodes in
// one array, tree t occupying the preorder run that starts at roots[t].
type forest struct {
	nodes []node
	roots []int32
}

// fit grows cfg.Trees bagged trees over X. A bootstrap resample is a list
// of row indices handed to grow as its sample set; no rows are copied.
func (f *forest) fit(X [][]float64, cfg ForestConfig, grow func(g *grower, idx []int)) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := newGrower(X)
	g.nodes = f.nodes[:0]
	f.roots = f.roots[:0]
	n := len(X)
	idx := make([]int, n)
	for t := 0; t < cfg.Trees; t++ {
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		g.cfg = TreeConfig{
			MaxDepth:       cfg.MaxDepth,
			MinSamplesLeaf: cfg.MinSamplesLeaf,
			MaxFeatures:    cfg.MaxFeatures,
			featurePick:    featurePicker(rng, cfg.MaxFeatures),
		}
		f.roots = append(f.roots, int32(len(g.nodes)))
		grow(&g, idx)
	}
	f.nodes = g.nodes
}

// Nodes returns how many tree nodes the fitted forest holds.
func (f *forest) Nodes() int { return len(f.nodes) }

// AppendThresholds appends the split threshold of every internal node
// that tests feature feat. Between two adjacent thresholds of a feature
// no x[feat] <= thr comparison in the forest changes its outcome.
func (f *forest) AppendThresholds(dst []float64, feat int) []float64 {
	for i := range f.nodes {
		if int(f.nodes[i].feat) == feat {
			dst = append(dst, f.nodes[i].thr)
		}
	}
	return dst
}

// RandomForestClassifier is a bagged ensemble of CART classifiers with
// majority voting — the model the paper selects for the profiler's CPU and
// memory usage-peak predictions (§4.3.1, §8.6).
type RandomForestClassifier struct {
	Config ForestConfig
	forest
	k int
}

// FitClassifier implements Classifier.
func (f *RandomForestClassifier) FitClassifier(X [][]float64, y []int) {
	checkFit(X, len(y))
	f.Config.defaults()
	f.k = NumClasses(y)
	f.fit(X, f.Config, func(g *grower, idx []int) { g.growClassifier(y, f.k, idx) })
}

// PredictClass implements Classifier by majority vote; ties break toward
// the smaller class index (deterministic).
func (f *RandomForestClassifier) PredictClass(x []float64) int {
	checkFitted(len(f.roots))
	var few [16]int // the profiler's forests vote over 8 classes: no allocation
	votes := few[:min(f.k, len(few))]
	if f.k > len(few) {
		votes = make([]int, f.k)
	}
	for _, r := range f.roots {
		votes[leaf(f.nodes, r, x).class]++
	}
	best, bestN := 0, -1
	for c, n := range votes {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// RandomForestRegressor is a bagged ensemble of CART regressors with mean
// aggregation — the paper's execution-time predictor (§4.3.1).
type RandomForestRegressor struct {
	Config ForestConfig
	forest
}

// FitRegressor implements Regressor.
func (f *RandomForestRegressor) FitRegressor(X [][]float64, y []float64) {
	checkFit(X, len(y))
	f.Config.defaults()
	f.fit(X, f.Config, func(g *grower, idx []int) { g.growRegressor(y, idx) })
}

// Predict implements Regressor.
func (f *RandomForestRegressor) Predict(x []float64) float64 {
	checkFitted(len(f.roots))
	s := 0.0
	for _, r := range f.roots {
		s += leaf(f.nodes, r, x).thr
	}
	return s / float64(len(f.roots))
}

func featurePicker(rng *rand.Rand, maxFeatures int) func(n int) []int {
	if maxFeatures <= 0 {
		return nil
	}
	return func(n int) []int {
		if maxFeatures >= n {
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			return all
		}
		return rng.Perm(n)[:maxFeatures]
	}
}
