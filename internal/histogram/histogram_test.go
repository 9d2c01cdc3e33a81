package histogram

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicStats(t *testing.T) {
	h := New(0, 100, 10)
	for _, v := range []float64{10, 20, 30} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 20 {
		t.Fatalf("Mean = %g", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("Min/Max = %g/%g", h.Min(), h.Max())
	}
}

func TestQuantileUniform(t *testing.T) {
	h := New(0, 1000, 100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Float64() * 1000)
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.5, 500, 25},
		{0.99, 990, 25},
		{0.05, 50, 25},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g±%g", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	h := New(0, 10, 4)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Observe(7)
	if h.Quantile(0) != 7 || h.Quantile(1) != 7 {
		t.Fatalf("single-value quantiles = %g/%g", h.Quantile(0), h.Quantile(1))
	}
}

func TestClampOutOfRange(t *testing.T) {
	h := New(0, 10, 4)
	h.Observe(-5)
	h.Observe(100)
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	// Quantiles stay within observed min/max.
	if q := h.Quantile(0.99); q > 100 || q < -5 {
		t.Fatalf("Quantile(0.99) = %g outside observed range", q)
	}
}

func TestObserveNaNIgnored(t *testing.T) {
	h := New(0, 10, 4)
	h.Observe(math.NaN())
	if h.Count() != 0 {
		t.Fatal("NaN observation was counted")
	}
}

func TestNewPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 10, 0) },
		func() { New(5, 5, 4) },
		func() { New(10, 0, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("New with bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestModelWindowAndEstimate(t *testing.T) {
	m := NewModel(8000, 1024, 60, 5)
	if m.Ready() {
		t.Fatal("fresh model should not be ready")
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		m.Observe(2000+rng.Float64()*1000, 300+rng.Float64()*100, 5+rng.Float64()*5)
	}
	if !m.Ready() {
		t.Fatal("model should be ready after 100 observations")
	}
	cpu, mem, dur := m.Estimate()
	if cpu < 2500 || cpu > 3100 {
		t.Errorf("P99 cpu = %g, want near 3000", cpu)
	}
	if mem < 350 || mem > 410 {
		t.Errorf("P99 mem = %g, want near 400", mem)
	}
	if dur < 4.9 || dur > 6 {
		t.Errorf("P5 dur = %g, want near 5.25", dur)
	}
	// Conservative directions: tail ≥ mean for peaks, head ≤ mean for time.
	if cpu < m.CPUPeak.Mean() {
		t.Error("P99 CPU below mean — not conservative")
	}
	if dur > m.Duration.Mean() {
		t.Error("P5 duration above mean — not conservative")
	}
}

// Property: quantiles are monotone in q and bounded by [Min, Max].
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(0, 100, 16)
		for i := 0; i < int(n)+1; i++ {
			h.Observe(rng.Float64() * 120) // some beyond range
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < prev-1e-9 || v < h.Min()-1e-9 || v > h.Max()+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantilesExact(t *testing.T) {
	data := []float64{4, 1, 3, 2, 5}
	got := Quantiles(data, 0, 0.5, 1)
	want := []float64{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Quantiles = %v, want %v", got, want)
		}
	}
	// Interpolation: median of {1,2,3,4} = 2.5
	if q := Quantiles([]float64{1, 2, 3, 4}, 0.5)[0]; q != 2.5 {
		t.Fatalf("median = %g, want 2.5", q)
	}
	if q := Quantiles(nil, 0.5)[0]; q != 0 {
		t.Fatalf("empty Quantiles = %g", q)
	}
}

// quantilesBySorting is what Quantiles computed before it selected: the
// same interpolation over a fully sorted copy.
func quantilesBySorting(data []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	s := append([]float64(nil), data...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// TestQuantilesMatchSortedReference holds the selecting Quantiles to the
// sorting one bit for bit, on the shapes that trip a selection: runs of
// duplicates, infinities and NaN, a single sample, q at and beyond both
// ends, positions q·(n−1) that are whole numbers (the upper neighbour is
// read with weight zero, and past the end not at all), and orders that
// make median-of-three pivots split badly.
func TestQuantilesMatchSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf := math.Inf(1)
	random := func(n int, draw func() float64) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = draw()
		}
		return d
	}
	organPipe := make([]float64, 2001)
	for i := range organPipe {
		organPipe[i] = float64(min(i, len(organPipe)-1-i))
	}
	ascending := random(5000, func() float64 { return 0 })
	for i := range ascending {
		ascending[i] = float64(i)
	}
	descending := make([]float64, len(ascending))
	for i, v := range ascending {
		descending[len(descending)-1-i] = v
	}
	cases := map[string][]float64{
		"single":           {7},
		"pair":             {2, 1},
		"all equal":        random(300, func() float64 { return 3 }),
		"three values":     random(1000, func() float64 { return float64(rng.Intn(3)) }),
		"infinities":       append(random(200, rng.NormFloat64), inf, -inf, inf, -inf),
		"NaN":              append(random(200, rng.NormFloat64), math.NaN(), math.NaN(), -inf),
		"only NaN":         {math.NaN(), math.NaN(), math.NaN()},
		"n-1 = 100":        random(101, rng.ExpFloat64),
		"n-1 = 1000":       random(1001, rng.ExpFloat64),
		"latencies":        random(250_000, rng.ExpFloat64),
		"ascending":        ascending,
		"descending":       descending,
		"organ pipe":       organPipe,
		"seventeen":        random(17, rng.Float64),
		"sixteen and ties": random(16, func() float64 { return float64(rng.Intn(4)) }),
	}
	for i := 0; i < 300; i++ { // every length around the sort-outright cutoff, mostly ties
		cases[fmt.Sprint("small ", i)] = random(1+i%60, func() float64 { return float64(rng.Intn(1 + i%7)) })
	}
	qs := []float64{-1, 0, 0.01, 0.05, 0.25, 0.5, 0.5, 0.75, 0.95, 0.99, 0.999, 1, 2}
	for name, data := range cases {
		got, want := Quantiles(data, qs...), quantilesBySorting(data, qs...)
		for i, q := range qs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: q=%v: selected %v, sorted %v", name, q, got[i], want[i])
			}
		}
		// One quantile at a time asks for other ranks than all at once.
		for _, q := range []float64{0.01, 0.5, 0.99} {
			if got, want := Quantiles(data, q)[0], quantilesBySorting(data, q)[0]; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: q=%v alone: selected %v, sorted %v", name, q, got, want)
			}
		}
	}
}

// Property: exact Quantiles do not mutate the input slice.
func TestPropertyQuantilesPure(t *testing.T) {
	f := func(data []float64) bool {
		orig := append([]float64(nil), data...)
		Quantiles(data, 0.1, 0.9)
		for i := range data {
			same := data[i] == orig[i] || (math.IsNaN(data[i]) && math.IsNaN(orig[i]))
			if !same {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkObserve(b *testing.B) {
	h := New(0, 1000, 64)
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 997))
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := New(0, 1000, 64)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Float64() * 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quantile(0.99)
	}
}
