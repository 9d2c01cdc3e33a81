package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"libra/internal/sim"
)

// tiny shrinks every workload to tier-1 size: a few thousand replayed
// invocations, live phases of a fraction of a second at 1% of the
// offered rates.
func tiny(seed int64, traced bool) env {
	return env{seed: seed, seconds: 0.3, traced: traced, shrink: 0.01}
}

// tinyRuns caches one seed-42 run per workload and pass; the tests below
// look at different sides of the same runs.
var tinyRuns = map[string]*result{}

func tinyRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	key := w.name
	if traced {
		key += " traced"
	}
	if res, ok := tinyRuns[key]; ok {
		return res
	}
	res, err := w.run(tiny(42, traced))
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	tinyRuns[key] = res
	return res
}

var nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	contract, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(contract.Paths) != 1 || contract.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", contract.Paths)
	}
	var got []string
	for _, w := range contract.Workloads {
		got = append(got, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workloads = %v, want %v", got, want)
	}

	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, defs []metricDef) {
		if i >= len(defs) {
			t.Errorf("%s: %s is not in the Go catalogue", kind, name)
			return
		}
		if d := defs[i]; d.Name != name || d.Unit != unit {
			t.Errorf("%s[%d] = %s %s, the Go catalogue has %s %s", kind, i, name, unit, d.Name, d.Unit)
		}
		if !nameSyntax.MatchString(name) {
			t.Errorf("%s: name %q is outside the contract's syntax", kind, name)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("%s %s: better = %q", kind, name, better)
		}
		if seen[name] {
			t.Errorf("%s: %s is used twice", kind, name)
		}
		seen[name] = true
	}
	if len(contract.EndToEnd) != len(endToEnd) || len(contract.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d + %d metrics, the Go catalogue %d + %d",
			len(contract.EndToEnd), len(contract.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range contract.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range contract.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer)
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestEveryMetricPrintedOnce runs both passes of every workload at tiny
// size and holds the printed lines to the catalogue.
func TestEveryMetricPrintedOnce(t *testing.T) {
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			rec, err := tinyRun(t, w, traced).record()
			if err != nil {
				t.Fatal(err)
			}
			// Validity (generator lateness) depends on the host's load, so
			// only wrong outputs fail the test.
			if len(rec.Violations) > 0 {
				t.Errorf("%s traced=%t: %v", w.name, traced, rec.Violations)
			}
			// At this size the overload replay abandons the odd invocation.
			if rec.Attempted < 1 || rec.Failed > rec.Attempted/100 {
				t.Errorf("%s traced=%t: attempted %d failed %d", w.name, traced, rec.Attempted, rec.Failed)
			}
			var out bytes.Buffer
			rec.print(&out)
			count := map[string]int{}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) == 0 || f[0] == "#" {
					continue
				}
				if len(f) != 4 || f[0] != w.name || f[3] == "" {
					t.Errorf("%s: malformed line %q", w.name, line)
					continue
				}
				count[f[1]]++
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if count[d.Name] != 1 {
					t.Errorf("%s traced=%t: %s printed %d times", w.name, traced, d.Name, count[d.Name])
				}
			}
			if len(count) != len(defs) {
				t.Errorf("%s traced=%t: %d names printed, catalogue has %d", w.name, traced, len(count), len(defs))
			}
			if !traced {
				for _, d := range defs {
					if x, _ := rec.metric(d.Name); !(x > 0) {
						t.Errorf("%s: end-to-end %s = %g, must be positive", w.name, d.Name, x)
					}
				}
				if _, err := json.Marshal(rec.contract()); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestPhasesAccountForTheRun checks the timing runner's bookkeeping on a
// traced replay: every fired event is counted under exactly one phase,
// and queue time plus phase self time is the Platform.Run span.
func TestPhasesAccountForTheRun(t *testing.T) {
	for _, s := range replaySpecs {
		v := tinyRun(t, workload{s.name, s.run}, true).v
		var seconds, fired float64
		for name, x := range v {
			switch {
			case strings.HasPrefix(name, "phase.") && strings.HasSuffix(name, "_s"),
				name == "eventq.push_s", name == "eventq.cancel_s", name == "eventq.pop_s":
				seconds += x
			case strings.HasPrefix(name, "phase.") && strings.HasSuffix(name, "_n"):
				fired += x
			}
		}
		if span := v["run.span_s"]; math.Abs(seconds-span) > 0.02*span {
			t.Errorf("%s: eventq.* + phase.* = %gs, run span %gs", s.name, seconds, span)
		}
		if v["phase.other_s"] < 0 || v["eventq.pop_s"] < 0 {
			t.Errorf("%s: negative remainder: other %gs pop %gs", s.name, v["phase.other_s"], v["eventq.pop_s"])
		}
		if fired != v["eventq.fired_n"] {
			t.Errorf("%s: phases count %g callbacks, the engine fired %g", s.name, fired, v["eventq.fired_n"])
		}
		n := float64(max(int(float64(s.n)*0.01), 100))
		if v["phase.arrive_n"] != n || v["sched.decisions_n"] < n*0.99 {
			t.Errorf("%s: %g arrivals, %g decisions for %g invocations", s.name, v["phase.arrive_n"], v["sched.decisions_n"], n)
		}
	}
}

func TestDigestIsDeterministicAndSeedSensitive(t *testing.T) {
	s := replaySpecs[0]
	digest := func(seed int64) string {
		rep, err := s.rep(tiny(seed, false), sim.NewEngine(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rep.digest
	}
	a, b, other := digest(42), digest(42), digest(7)
	if a != b {
		t.Errorf("seed 42 replayed twice: %s then %s", a, b)
	}
	if a == other {
		t.Errorf("seeds 42 and 7 share digest %s", a)
	}
}

func TestCommittedDigestsCoverBothSeeds(t *testing.T) {
	for _, s := range replaySpecs {
		for _, seed := range []int64{42, 7} {
			if _, ok := committedDigest(s.name, env{seed: seed, shrink: 1}); !ok {
				t.Errorf("reference.json has no digest for %s seed %d", s.name, seed)
			}
		}
	}
}

func TestRegisterSYNIsGuarded(t *testing.T) {
	for i := 0; i < 2; i++ {
		if err := registerSYN(); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
}

func TestSpreadUsesPythonsExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if got, want := spread([]float64{10, 20, 40}), 30.0/20; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, invPerS []float64, digest string) string {
		f := outFile{Host: fingerprint()}
		for i, x := range invPerS {
			rec := runRecord{Workload: "replay-steady", Seed: int64(i), Correct: true, Attempted: 100, Digest: digest}
			for _, d := range endToEnd {
				v := 1.0
				if d.Name == "inv_per_s" {
					v = x
				}
				rec.Metrics = append(rec.Metrics, namedValue{d, v})
			}
			f.Runs = append(f.Runs, rec)
		}
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	contract := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", []float64{100, 101, 99, 100, 100}, "d1")
	for _, tc := range []struct {
		name      string
		values    []float64
		digest    string
		want      string
		regressed bool
	}{
		{"same", []float64{100, 100, 101, 99, 100}, "d1", "inv_per_s a=100 b=100 1/s", false},
		{"slower", []float64{50, 50, 51, 49, 50}, "d1", "regressed", true},
		{"noisy", []float64{50, 100, 150, 20, 200}, "d1", "unresolved", false},
		{"model-change", []float64{100, 100, 101, 99, 100}, "d2", "digest differs", true},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, contract, base, write(tc.name+".json", tc.values, tc.digest))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: regressed=%t, output lacks %q:\n%s", tc.name, regressed, tc.want, out.String())
		}
	}
}
