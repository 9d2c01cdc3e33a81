package mlkit

import (
	"cmp"
	"math"
	"slices"
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
// every node of one fit: class counts, the node's samples by ascending
// value of the feature under consideration, its samples gathered in idx
// order, the all-features candidate list, and the partition buffer. A
// forest fits thousands of nodes per model and the profiler trains up to
// six forests per function, so these were the simulator's top allocators.
type splitScratch struct {
	pairs  []labelled
	vals   []float64
	xs, ys []float64
	lc, rc []int
	feats  []int
	part   []int
}

// empty returns buf emptied, with room for n elements. A tree's root asks
// for the most any of its nodes will, so each buffer is allocated once per
// fit rather than grown by doubling.
func empty[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
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
// so the split search reads one contiguous column per feature.
//
// Nothing is sorted while a tree grows. newGrower sorts the rows once per
// feature; sample spreads a tree's samples — a list of rows that may
// repeat a row, which is how a forest passes a bootstrap resample without
// copying rows — over those orders; and a split hands both children their
// samples in every order by stable partition. A node is a range [lo, hi)
// of idx and of every list in ord.
type grower struct {
	cfg   TreeConfig
	cols  [][]float64
	nodes []node

	// like[f] is the first feature that orders the rows exactly as f does
	// (see sameOrder), f itself for most; byVal[f], kept for those leading
	// features only, is every row by ascending cols[f], NaN last. Fixed
	// for the fit.
	like  []int
	byVal [][]int

	// idx is the current tree's samples in the order they were drawn —
	// the order the regressor adds in — and ord[f], for a leading f, the
	// same samples by ascending cols[f]; count is sample's scratch.
	idx   []int
	ord   [][]int
	count []int

	sc splitScratch
}

// newGrower prepares a fit over X: the columns, each feature's sorted row
// list, and which features need none of their own because an earlier one
// orders the rows the same way — the one O(n log n) step of a fit.
func newGrower(X [][]float64) grower {
	g := grower{cols: columns(X)}
	n, nFeat := len(X), len(g.cols)
	g.like = make([]int, nFeat)
	g.byVal = make([][]int, nFeat)
	g.ord = make([][]int, nFeat)
	g.count = make([]int, n)
	tidy := make([]bool, nFeat)
	var rows []int
	for f, col := range g.cols {
		if rows == nil {
			rows = identity(n)
		}
		slices.SortFunc(rows, func(a, b int) int { return ascendingNaNLast(col[a], col[b]) })
		tidy[f] = midpointsInside(col, rows)
		g.like[f] = f
		for e := 0; e < f && g.like[f] == f; e++ {
			if g.like[e] == e && tidy[e] && tidy[f] && sameOrder(g.cols[e], col, g.byVal[e]) {
				g.like[f] = e
			}
		}
		if g.like[f] == f {
			g.byVal[f], rows = rows, nil // else the next feature sorts the same list
		}
	}
	return g
}

func ascendingNaNLast(x, y float64) int {
	if xNaN, yNaN := x != x, y != y; xNaN || yNaN {
		switch {
		case !yNaN:
			return 1
		case !xNaN:
			return -1
		}
		return 0
	}
	return cmp.Compare(x, y)
}

// midpointsInside reports whether col, read along rows (which sort it),
// has no NaN and the midpoint of every two adjacent distinct values lies
// strictly between them. Float addition and halving are monotone, so the
// midpoint of any two distinct values of the column, adjacent or not, then
// lies strictly between them as well: at no node does a threshold round
// onto one of its neighbours, overflow, or come out NaN.
func midpointsInside(col []float64, rows []int) bool {
	if v := col[rows[len(rows)-1]]; v != v { // NaN sorts last
		return false
	}
	for j := 1; j < len(rows); j++ {
		lo, hi := col[rows[j-1]], col[rows[j]]
		if t := (lo + hi) / 2; lo != hi && !(lo < t && t < hi) {
			return false
		}
	}
	return true
}

// sameOrder reports whether b orders the rows exactly as a does: along
// rows, which sort a, b ties where a ties and rises where a rises. Given
// midpointsInside of both, the thresholds a node tries on b then cut its
// samples into the same two sets, in the same sequence, as the thresholds
// it tries on a — so the split search, which takes a later candidate only
// if it scores strictly better, never takes b after it has scanned a, and
// does not scan it (shadowed).
func sameOrder(a, b []float64, rows []int) bool {
	for j := 1; j < len(rows); j++ {
		p, q := rows[j-1], rows[j]
		if (a[p] == a[q]) != (b[p] == b[q]) || !(b[p] <= b[q]) {
			return false
		}
	}
	return true
}

// shadowed reports whether one of the candidates a node has already
// scanned orders the rows as f does.
func (g *grower) shadowed(scanned []int, f int) bool {
	for _, e := range scanned {
		if g.like[e] == g.like[f] {
			return true
		}
	}
	return false
}

// sample makes idx the samples of the tree grown next: each sorted row
// list is copied with every row repeated as often as idx draws it. How
// equal values are ordered among themselves in ord never shows: the Gini
// sweep moves them across together, and the variance search only reads
// the distinct values off it.
func (g *grower) sample(idx []int) {
	g.idx = idx
	clear(g.count)
	for _, i := range idx {
		g.count[i]++
	}
	for f, rows := range g.byVal {
		if rows == nil {
			continue
		}
		o := empty(g.ord[f], len(idx))
		for _, i := range rows {
			for c := g.count[i]; c > 0; c-- {
				o = append(o, i)
			}
		}
		g.ord[f] = o
	}
}

// split divides the node [lo, hi) under cols[feat] <= thr: idx and every
// sorted list keep their order on both sides, the left side first, and mid
// is where the right side begins. The list sorted by the split feature is
// so divided as it stands: the values up to thr are its head.
func (g *grower) split(feat int, thr float64, lo, hi int) (mid int) {
	col := g.cols[feat]
	mid = lo + stablePartition(col, g.idx[lo:hi], thr, &g.sc)
	for f, o := range g.ord {
		if o != nil && f != g.like[feat] {
			stablePartition(col, o[lo:hi], thr, &g.sc)
		}
	}
	return mid
}

// stablePartition reorders list so that the rows with col[i] <= thr come
// first, preserving relative order on both sides, and returns how many
// they are: the left subset compacts into the prefix while the right
// subset stages in the scratch buffer and copies back behind it.
func stablePartition(col []float64, list []int, thr float64, sc *splitScratch) int {
	buf := empty(sc.part, len(list))[:len(list)]
	w, r := 0, 0
	for _, i := range list {
		// Both stores every time and a counter that moves by 0 or 1: the
		// side a sample falls on is as good as random, a branch on it
		// mispredicted half the time.
		list[w], buf[r] = i, i
		left := 0
		if col[i] <= thr {
			left = 1
		}
		w += left
		r += 1 - left
	}
	copy(list[w:], buf[:r])
	sc.part = buf
	return w
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
	g := newGrower(X)
	g.cfg = t.Config
	g.growClassifier(y, NumClasses(y), identity(len(X)))
	t.nodes = g.nodes
}

// PredictClass implements Classifier.
func (t *DecisionTreeClassifier) PredictClass(x []float64) int {
	checkFitted(len(t.nodes))
	return int(leaf(t.nodes, 0, x).class)
}

// growClassifier appends the classification tree over the samples idx.
func (g *grower) growClassifier(y []int, k int, idx []int) {
	g.sample(idx)
	g.classify(y, k, 0, len(idx), 0)
}

// classify appends the subtree over the node [lo, hi). The node is written
// as a leaf first and promoted once both children exist, which is what
// keeps the run in preorder.
func (g *grower) classify(y []int, k, lo, hi, depth int) {
	counts, _ := g.sc.counts(k) // free until the split search below
	for c := range counts {
		counts[c] = 0
	}
	for _, i := range g.idx[lo:hi] {
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
	pure := majN == hi-lo
	if pure || depth >= g.cfg.MaxDepth || hi-lo < 2*g.cfg.MinSamplesLeaf {
		return
	}
	feat, thr, ok := g.bestSplitGini(y, k, lo, hi)
	if !ok {
		return
	}
	mid := g.split(feat, thr, lo, hi)
	if mid-lo < g.cfg.MinSamplesLeaf || hi-mid < g.cfg.MinSamplesLeaf {
		return
	}
	g.classify(y, k, lo, mid, depth+1)
	right := len(g.nodes)
	g.classify(y, k, mid, hi, depth+1)
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
	g := newGrower(X)
	g.cfg = t.Config
	g.growRegressor(y, identity(len(X)))
	t.nodes = g.nodes
}

// Predict implements Regressor.
func (t *DecisionTreeRegressor) Predict(x []float64) float64 {
	checkFitted(len(t.nodes))
	return leaf(t.nodes, 0, x).thr
}

// growRegressor appends the regression tree over the samples idx.
func (g *grower) growRegressor(y []float64, idx []int) {
	g.sample(idx)
	g.regress(y, 0, len(idx), 0)
}

// regress is classify's regression twin; a leaf keeps the mean of its
// samples in thr.
func (g *grower) regress(y []float64, lo, hi, depth int) {
	ys := empty(g.sc.ys, hi-lo)
	for _, i := range g.idx[lo:hi] {
		ys = append(ys, y[i])
	}
	g.sc.ys = ys
	mean, variance := meanVar(ys)
	self := len(g.nodes)
	g.nodes = append(g.nodes, node{feat: -1, thr: mean})
	if variance == 0 || depth >= g.cfg.MaxDepth || hi-lo < 2*g.cfg.MinSamplesLeaf {
		return
	}
	feat, thr, ok := g.bestSplitVariance(ys, lo, hi)
	if !ok {
		return
	}
	mid := g.split(feat, thr, lo, hi)
	if mid-lo < g.cfg.MinSamplesLeaf || hi-mid < g.cfg.MinSamplesLeaf {
		return
	}
	g.regress(y, lo, mid, depth+1)
	right := len(g.nodes)
	g.regress(y, mid, hi, depth+1)
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

func candidateFeatures(nFeat int, cfg TreeConfig, sc *splitScratch) []int {
	if cfg.featurePick != nil && cfg.MaxFeatures > 0 && cfg.MaxFeatures < nFeat {
		return cfg.featurePick(nFeat)
	}
	all := empty(sc.feats, nFeat)
	for i := 0; i < nFeat; i++ {
		all = append(all, i)
	}
	sc.feats = all
	return all
}

// bestSplitGini returns, for the node [lo, hi), the (feature, threshold)
// pair with the lowest weighted Gini impurity among the midpoints of
// adjacent distinct values.
//
// Per feature a cursor sweeps the node's samples, which arrive sorted by
// value, as the threshold rises, moving labels from the right class counts
// to the left ones. The result is bit-identical to recounting every sample
// per threshold (the reference scan in tree_test.go) because the counts
// are integers and g is the same expression of them — given that features
// are visited in candidate order and thresholds ascending under the strict
// g < best, that a side left empty is skipped, and that the cursor
// advances by value (v <= t), never by index: a midpoint may round onto
// the upper value and must then take its duplicates along. A NaN value is
// never <= t, so it stays on the right for every threshold.
func (g *grower) bestSplitGini(y []int, k, lo, hi int) (feat int, thr float64, ok bool) {
	best := math.Inf(1)
	lc, rc := g.sc.counts(k)
	ps := empty(g.sc.pairs, hi-lo)
	cand := candidateFeatures(len(g.cols), g.cfg, &g.sc)
	for ci, f := range cand {
		if g.shadowed(cand[:ci], f) {
			continue
		}
		col := g.cols[f]
		for c := range lc {
			lc[c], rc[c] = 0, 0
		}
		ps = ps[:0]
		for _, i := range g.ord[g.like[f]][lo:hi] {
			rc[y[i]]++
			if v := col[i]; v == v {
				ps = append(ps, labelled{v, y[i]})
			}
		}
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
			rn := hi - lo - ln
			if ln == 0 || rn == 0 {
				continue
			}
			g := float64(ln)*gini(lc, ln) + float64(rn)*gini(rc, rn)
			if g < best {
				best, feat, thr, ok = g, f, t, true
			}
		}
	}
	g.sc.pairs = ps[:0]
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

// sideSums accumulates the samples on one side of a candidate split.
type sideSums struct {
	s, ss float64
	n     int
}

func (a *sideSums) sse() float64 { return a.ss - a.s*a.s/float64(a.n) }

// lanes is how many thresholds the variance search adds up in one pass
// over a node's samples.
const lanes = 8

// bestSplitVariance returns the split of the node [lo, hi) minimizing the
// summed child SSE. ys is y gathered in idx order. Every threshold re-adds
// its two sides in idx order: float sums depend on the order of their
// terms, so a sorted prefix-sum sweep like bestSplitGini's would move the
// chosen split by ulps. What is fast is only the layout: one contiguous
// column gathered once per feature, the thresholds read off the node's
// sorted list, and lanes of them added up per pass. A sum still takes its
// own terms in idx order; but where one threshold's four sums make every
// addition wait for the one before it, the sums of a pass are many and
// wait only for themselves.
func (g *grower) bestSplitVariance(ys []float64, lo, hi int) (feat int, thr float64, ok bool) {
	best := math.Inf(1)
	vals, xs := empty(g.sc.vals, hi-lo), empty(g.sc.xs, hi-lo)
	cand := candidateFeatures(len(g.cols), g.cfg, &g.sc)
	for ci, f := range cand {
		if g.shadowed(cand[:ci], f) {
			continue
		}
		col := g.cols[f]
		xs, vals = xs[:0], vals[:0]
		for _, i := range g.idx[lo:hi] {
			xs = append(xs, col[i])
		}
		for _, i := range g.ord[g.like[f]][lo:hi] {
			vals = append(vals, col[i])
		}
		// The thresholds, ascending, written over the values already read.
		ts := vals[:0]
		for vi := 0; vi+1 < len(vals); vi++ {
			if a, b := vals[vi], vals[vi+1]; a != b {
				ts = append(ts, (a+b)/2)
			}
		}
		for len(ts) > 0 {
			pass := ts[:min(lanes, len(ts))]
			ts = ts[len(pass):]
			var acc [lanes][2]sideSums // per threshold: left, right
			for j, v := range xs {
				y := ys[j]
				yy := y * y
				for k, t := range pass {
					side := 1
					if v <= t {
						side = 0
					}
					a := &acc[k][side]
					a.s += y
					a.ss += yy
					a.n++
				}
			}
			for k, t := range pass {
				l, r := &acc[k][0], &acc[k][1]
				if l.n == 0 || r.n == 0 {
					continue
				}
				if sse := l.sse() + r.sse(); sse < best {
					best, feat, thr, ok = sse, f, t, true
				}
			}
		}
	}
	g.sc.vals, g.sc.xs = vals[:0], xs[:0]
	return feat, thr, ok
}
