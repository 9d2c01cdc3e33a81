// Package libra's root benchmarks regenerate every table and figure of
// the paper (one Benchmark per experiment, §8) plus the ablation benches
// called out in DESIGN.md §6. Run:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the experiment in Quick mode (trimmed sweeps,
// single repetition) so the full suite stays in CI range; use
// cmd/libra-bench for the full-resolution paper runs.
package libra_test

import (
	"context"
	"io"
	"testing"

	"libra/internal/benchkit"
	"libra/internal/experiments"
	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/sim"
	"libra/internal/trace"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := e.Run(context.Background(), experiments.Options{Seed: 42, Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		r.Render(io.Discard)
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig1Motivation(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkTable1Apps(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkFig6CDF(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7Utilization(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8Scatter(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9SchedulingP99(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10IdleTime(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkFig11AvgPeakUtil(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12Scalability(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkTable2Models(b *testing.B)       { benchExperiment(b, "table2") }
func BenchmarkFig13ModelAblation(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14Safeguard(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15Breakdown(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16CoverageWeight(b *testing.B) {
	benchExperiment(b, "fig16")
}
func BenchmarkOverheadReport(b *testing.B) { benchExperiment(b, "overheads") }
func BenchmarkFigF1Faults(b *testing.B)    { benchExperiment(b, "figf1") }
func BenchmarkFigs2Jetstream(b *testing.B) { benchExperiment(b, "figs2") }
func BenchmarkFigO1Breakdown(b *testing.B) { benchExperiment(b, "figo1") }

// BenchmarkPlatformTracedVsUntraced pins the nil-tracer zero-cost
// contract in wall-clock terms: the untraced multi-node run must not
// regress against the traced one's recording overhead (the reported
// metrics let the ±2% comparison be read off one run).
func BenchmarkPlatformTracedVsUntraced(b *testing.B) {
	set := trace.MultiSet(300, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := platform.PresetLibra(platform.MultiNode(), 42)
		mustPlatform(cfg).Run(set)
		cfg.Tracer = obs.NewRecorder()
		mustPlatform(cfg).Run(set)
	}
}

// Ablation benches (DESIGN.md §6): each reports the P99 latency of the
// design choice and its ablated variant as custom metrics, so the value
// of the design decision is visible in the benchmark output.

func runP99(b *testing.B, cfg platform.Config, set trace.Set) float64 {
	b.Helper()
	r := mustPlatform(cfg).Run(set)
	return metrics.Summarize(r.Latencies()).P99
}

// BenchmarkAblationVolumeOnlyCoverage compares timeliness-aware demand
// coverage against volume-only coverage (expiry-blind node selection),
// averaged over three seeds.
func BenchmarkAblationVolumeOnlyCoverage(b *testing.B) {
	var aware, blind float64
	for i := 0; i < b.N; i++ {
		aware, blind = 0, 0
		for _, seed := range []int64{42, 43, 44} {
			set := trace.MultiSet(240, seed)
			cfg := platform.PresetLibra(platform.MultiNode(), seed)
			aware += runP99(b, cfg, set) / 3
			cfg.VolumeOnlyCoverage = true
			blind += runP99(b, cfg, set) / 3
		}
	}
	b.ReportMetric(aware, "p99-aware-s")
	b.ReportMetric(blind, "p99-volume-only-s")
}

// BenchmarkAblationHashLocality compares Libra's hash path for
// non-accelerable invocations (warm-container locality) against routing
// everything through coverage-maximising placement (as RR would).
func BenchmarkAblationHashLocality(b *testing.B) {
	// Locality matters when per-function interarrival exceeds execution
	// time, so containers actually cool down between invocations: a long
	// low-rate trace rather than a one-minute burst.
	set := trace.Generate("locality", function.Apps(), 200, 30, 42)
	var hash, rr float64
	var hashCold, rrCold int
	for i := 0; i < b.N; i++ {
		cfg := platform.PresetLibra(platform.MultiNode(), 42)
		p := mustPlatform(cfg)
		r := p.Run(set)
		hash = metrics.Summarize(r.Latencies()).P99
		hashCold = r.ColdStarts
		cfg2 := platform.WithAlgorithm(platform.PresetLibra(platform.MultiNode(), 42), "RR")
		p2 := mustPlatform(cfg2)
		r2 := p2.Run(set)
		rr = metrics.Summarize(r2.Latencies()).P99
		rrCold = r2.ColdStarts
	}
	b.ReportMetric(hash, "p99-libra-s")
	b.ReportMetric(rr, "p99-rr-s")
	b.ReportMetric(float64(hashCold), "coldstarts-libra")
	b.ReportMetric(float64(rrCold), "coldstarts-rr")
}

// BenchmarkAblationPoolPriority compares the paper's longest-expiry-first
// lending order against FIFO lending (DESIGN.md §6): with priority
// lending, accelerated invocations hold their loans longer, which shows
// up as a larger mean positive speedup among accelerated invocations.
func BenchmarkAblationPoolPriority(b *testing.B) {
	var prio, fifo float64
	for i := 0; i < b.N; i++ {
		prio, fifo = 0, 0
		for _, seed := range []int64{42, 43, 44} {
			set := trace.SingleSet(seed)
			cfg := platform.PresetLibra(platform.SingleNode(), seed)
			prio += meanAcceleratedSpeedup(mustPlatform(cfg).Run(set)) / 3
			cfg.PoolLendOrder = harvest.FIFO
			fifo += meanAcceleratedSpeedup(mustPlatform(cfg).Run(set)) / 3
		}
	}
	b.ReportMetric(prio, "accel-speedup-priority")
	b.ReportMetric(fifo, "accel-speedup-fifo")
}

func meanAcceleratedSpeedup(r *platform.Result) float64 {
	var sum float64
	n := 0
	for _, rec := range r.Records {
		if rec.Inv.Accelerate {
			sum += rec.Speedup
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkAblationSafeguard quantifies what the safeguard buys: the
// worst-case speedup with and without the daemon.
func BenchmarkAblationSafeguard(b *testing.B) {
	set := trace.SingleSet(42)
	var with, without float64
	for i := 0; i < b.N; i++ {
		r := mustPlatform(platform.PresetLibra(platform.SingleNode(), 42)).Run(set)
		with = metrics.Summarize(r.Speedups()).Min
		r2 := mustPlatform(platform.PresetLibraNS(platform.SingleNode(), 42)).Run(set)
		without = metrics.Summarize(r2.Speedups()).Min
	}
	b.ReportMetric(with, "worst-speedup-safeguard")
	b.ReportMetric(without, "worst-speedup-no-safeguard")
}

// BenchmarkAblationJointVsSingleAxis compares joint CPU+memory
// harvesting against memory-only (OFC-style, §9) and CPU-only variants
// by mean speedup across the workload.
func BenchmarkAblationJointVsSingleAxis(b *testing.B) {
	set := trace.SingleSet(42)
	var joint, memOnly, cpuOnly float64
	mean := func(r *platform.Result) float64 {
		s := metrics.Summarize(r.Speedups())
		return s.Mean
	}
	for i := 0; i < b.N; i++ {
		cfg := platform.PresetLibra(platform.SingleNode(), 42)
		joint = mean(mustPlatform(cfg).Run(set))
		cfg.HarvestMemOnly = true
		memOnly = mean(mustPlatform(cfg).Run(set))
		cfg.HarvestMemOnly = false
		cfg.HarvestCPUOnly = true
		cpuOnly = mean(mustPlatform(cfg).Run(set))
	}
	b.ReportMetric(joint, "mean-speedup-joint")
	b.ReportMetric(cpuOnly, "mean-speedup-cpu-only")
	b.ReportMetric(memOnly, "mean-speedup-mem-only")
}

// Micro-benchmarks of the platform's hot paths.

func BenchmarkPlatformSingleNodeLibra(b *testing.B) {
	set := trace.SingleSet(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPlatform(platform.PresetLibra(platform.SingleNode(), 42)).Run(set)
	}
}

func BenchmarkPlatformMultiNodeLibra(b *testing.B) {
	set := trace.MultiSet(300, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPlatform(platform.PresetLibra(platform.MultiNode(), 42)).Run(set)
	}
}

func BenchmarkPlatformJetstreamBurst(b *testing.B) {
	set := trace.ConcurrentBurst(500, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPlatform(platform.PresetLibra(platform.Jetstream(50, 4), 42)).Run(set)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace.Generate("bench", function.Apps(), 1000, 120, int64(i))
	}
}

// Hot-path registry (internal/benchkit): the same benchmarks that
// cmd/libra-bench -json measures into the committed perf report, exposed
// to `go test -bench` so CI's smoke pass exercises them too.

func BenchmarkHotEngineSteadyState(b *testing.B)      { benchkit.BenchEngineSteadyState(b) }
func BenchmarkHotEngineRerate(b *testing.B)           { benchkit.BenchEngineRerate(b) }
func BenchmarkHotShardSelectLibra50(b *testing.B)     { benchkit.BenchShardSelectLibra50(b) }
func BenchmarkHotShardSelectSaturated50(b *testing.B) { benchkit.BenchShardSelectSaturated50(b) }
func BenchmarkHotPoolLifecycle(b *testing.B)          { benchkit.BenchPoolLifecycle(b) }
func BenchmarkHotPlatformMultiNode(b *testing.B)      { benchkit.BenchPlatformMultiNode(b) }
func BenchmarkHotOverloadReplay500(b *testing.B)      { benchkit.BenchOverloadReplay500(b) }
func BenchmarkHotOverloadReplay2000(b *testing.B)     { benchkit.BenchOverloadReplay2000(b) }
func BenchmarkHotOverloadReplay8000(b *testing.B)     { benchkit.BenchOverloadReplay8000(b) }
func BenchmarkHotLibraSparse50(b *testing.B)          { benchkit.BenchLibraSparse50(b) }
func BenchmarkHotLibraSparse200(b *testing.B)         { benchkit.BenchLibraSparse200(b) }

// mustPlatform builds a sim-engine platform from a preset config,
// panicking on the impossible invalid-config case (presets are correct
// by construction).
func mustPlatform(cfg platform.Config) *platform.Platform {
	p, err := platform.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(err)
	}
	return p
}
