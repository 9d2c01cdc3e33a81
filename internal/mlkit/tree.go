package mlkit

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// node is one node of a CART decision tree. A tree is a run of nodes in
// preorder inside one slice: the left child of the internal node at index
// i is i+1, its right child is nodes[i].right. A leaf has feat == -1 and
// carries its payload in class (classification) or thr (regression).
type node struct {
	thr   float64
	feat  int32
	right int32
	class int32
}

// leaf walks the tree rooted at nodes[root] down to the leaf x falls in.
func leaf(nodes []node, root int32, x []float64) *node {
	i := root
	for {
		n := &nodes[i]
		if n.feat < 0 {
			return n
		}
		if x[n.feat] <= n.thr {
			i++
		} else {
			i = n.right
		}
	}
}

func checkFitted(nodes int) {
	if nodes == 0 {
		panic("mlkit: Predict before Fit")
	}
}

// TreeConfig bounds tree growth. Zero values select the defaults noted on
// each field.
type TreeConfig struct {
	MaxDepth       int // default 12
	MinSamplesLeaf int // default 1
	// MaxFeatures is how many features are considered per split; 0 means
	// all features (plain CART). Random forests set this below the feature
	// count to decorrelate trees.
	MaxFeatures int
	// rng source for feature subsampling; nil means deterministic
	// all-features scan.
	featurePick func(n int) []int
}

func (c *TreeConfig) defaults() {
	if c.MaxDepth == 0 {
		c.MaxDepth = 12
	}
	if c.MinSamplesLeaf == 0 {
		c.MinSamplesLeaf = 1
	}
}

// labelled is one training sample as the Gini sweep sees it: the value of
// the feature under consideration and the class label.
type labelled struct {
	v float64
	y int
}

// splitScratch holds the split-search working buffers, reused across
// every node of one Fit: class counts, the node's samples sorted by the
// feature under consideration, its samples gathered in idx order, the
// all-features candidate list, and the partition buffer. A forest fits
// thousands of nodes per model and the profiler trains six forests per
// function, so these were the simulator's top allocators.
type splitScratch struct {
	pairs  []labelled
	vals   []float64
	xs, ys []float64
	lc, rc []int
	feats  []int
	part   []int
}

func (sc *splitScratch) counts(k int) (lc, rc []int) {
	if cap(sc.lc) < k {
		sc.lc = make([]int, k)
		sc.rc = make([]int, k)
	}
	return sc.lc[:k], sc.rc[:k]
}

// grower appends trees to nodes, one preorder run per grow call. The
// training set is held column-major (cols[f][i] is feature f of sample i)
// so the split search reads one contiguous column per feature; idx names
// the samples of the node being grown and may repeat a sample, which is
// how a forest passes a bootstrap resample without copying rows.
type grower struct {
	cfg   TreeConfig
	cols  [][]float64
	nodes []node
	sc    splitScratch
}

// columns transposes row-major X.
func columns(X [][]float64) [][]float64 {
	n := len(X)
	flat := make([]float64, len(X[0])*n)
	cols := make([][]float64, len(X[0]))
	for f := range cols {
		cols[f] = flat[f*n : (f+1)*n]
		for i, row := range X {
			cols[f][i] = row[f]
		}
	}
	return cols
}

func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// DecisionTreeClassifier is a CART classifier using Gini impurity.
type DecisionTreeClassifier struct {
	Config TreeConfig
	nodes  []node
}

// FitClassifier implements Classifier.
func (t *DecisionTreeClassifier) FitClassifier(X [][]float64, y []int) {
	checkFit(X, len(y))
	t.Config.defaults()
	g := grower{cfg: t.Config, cols: columns(X)}
	g.growClassifier(y, NumClasses(y), identity(len(X)), 0)
	t.nodes = g.nodes
}

// PredictClass implements Classifier.
func (t *DecisionTreeClassifier) PredictClass(x []float64) int {
	checkFitted(len(t.nodes))
	return int(leaf(t.nodes, 0, x).class)
}

// growClassifier appends the subtree over idx. The node is written as a
// leaf first and promoted once both children exist, which is what keeps
// the run in preorder.
func (g *grower) growClassifier(y []int, k int, idx []int, depth int) {
	counts, _ := g.sc.counts(k) // free until the split search below
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
	feat, thr, ok := bestSplitGini(g.cols, y, idx, k, g.cfg, &g.sc)
	if !ok {
		return
	}
	li, ri := partition(g.cols[feat], idx, thr, &g.sc)
	if len(li) < g.cfg.MinSamplesLeaf || len(ri) < g.cfg.MinSamplesLeaf {
		return
	}
	g.growClassifier(y, k, li, depth+1)
	right := len(g.nodes)
	g.growClassifier(y, k, ri, depth+1)
	g.nodes[self] = node{thr: thr, feat: int32(feat), right: int32(right)}
}

// DecisionTreeRegressor is a CART regressor minimizing within-node variance.
type DecisionTreeRegressor struct {
	Config TreeConfig
	nodes  []node
}

// FitRegressor implements Regressor.
func (t *DecisionTreeRegressor) FitRegressor(X [][]float64, y []float64) {
	checkFit(X, len(y))
	t.Config.defaults()
	g := grower{cfg: t.Config, cols: columns(X)}
	g.growRegressor(y, identity(len(X)), 0)
	t.nodes = g.nodes
}

// Predict implements Regressor.
func (t *DecisionTreeRegressor) Predict(x []float64) float64 {
	checkFitted(len(t.nodes))
	return leaf(t.nodes, 0, x).thr
}

// growRegressor is growClassifier's regression twin; a leaf keeps the
// mean of its samples in thr.
func (g *grower) growRegressor(y []float64, idx []int, depth int) {
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
	feat, thr, ok := bestSplitVariance(g.cols, ys, idx, g.cfg, &g.sc)
	if !ok {
		return
	}
	li, ri := partition(g.cols[feat], idx, thr, &g.sc)
	if len(li) < g.cfg.MinSamplesLeaf || len(ri) < g.cfg.MinSamplesLeaf {
		return
	}
	g.growRegressor(y, li, depth+1)
	right := len(g.nodes)
	g.growRegressor(y, ri, depth+1)
	g.nodes[self] = node{thr: thr, feat: int32(feat), right: int32(right)}
}

func meanVar(ys []float64) (mean, variance float64) {
	for _, v := range ys {
		mean += v
	}
	mean /= float64(len(ys))
	for _, v := range ys {
		d := v - mean
		variance += d * d
	}
	variance /= float64(len(ys))
	return mean, variance
}

// partition splits idx in place under col[i] <= thr, preserving relative
// order on both sides exactly as the append-based formulation did: the
// left subset compacts into the prefix while the right subset stages in
// the scratch buffer and copies back behind it. The returned slices
// alias idx — safe because grow's recursion keeps them disjoint.
func partition(col []float64, idx []int, thr float64, sc *splitScratch) (left, right []int) {
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

func candidateFeatures(nFeat int, cfg TreeConfig, sc *splitScratch) []int {
	if cfg.featurePick != nil && cfg.MaxFeatures > 0 && cfg.MaxFeatures < nFeat {
		return cfg.featurePick(nFeat)
	}
	all := sc.feats[:0]
	for i := 0; i < nFeat; i++ {
		all = append(all, i)
	}
	sc.feats = all
	return all
}

// bestSplitGini returns the (feature, threshold) pair with the lowest
// weighted Gini impurity among the midpoints of adjacent distinct values.
//
// Per feature the node's samples are sorted by value once and a cursor
// sweeps them as the threshold rises, moving labels from the right class
// counts to the left ones. The result is bit-identical to recounting every
// sample per threshold (the reference scan in tree_test.go) because the
// counts are integers and g is the same expression of them — given that
// features are visited in candidate order and thresholds ascending under
// the strict g < best, that a side left empty is skipped, and that the
// cursor advances by value (v <= t), never by index: a midpoint may round
// onto the upper value and must then take its duplicates along. A NaN
// value is never <= t, so it stays on the right for every threshold.
func bestSplitGini(cols [][]float64, y []int, idx []int, k int, cfg TreeConfig, sc *splitScratch) (feat int, thr float64, ok bool) {
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
		ln := 0 // ps[:ln] is the left side
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

func gini(counts []int, n int) float64 {
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		s -= p * p
	}
	return s
}

// bestSplitVariance returns the split minimizing the summed child SSE.
// ys is y gathered in idx order. Every threshold re-adds its two sides in
// idx order: float sums depend on the order of their terms, so a sorted
// prefix-sum sweep like bestSplitGini's would move the chosen split by
// ulps. Only the layout is fast — one contiguous column gathered once per
// feature.
func bestSplitVariance(cols [][]float64, ys []float64, idx []int, cfg TreeConfig, sc *splitScratch) (feat int, thr float64, ok bool) {
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
