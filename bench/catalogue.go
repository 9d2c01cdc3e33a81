package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric of the benchmark contract. BENCHMARK.json
// at the repository root lists the same names, units and directions;
// TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every one of them (README.md says what
// each means on which workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"inv_per_s", "1/s"},
	{"overhead_ms", "ms"},
	{"allocs_per_inv", "1/inv"},
	{"peak_rss_mb", "MB"},
}

// rungNames are the isolated per-layer rungs; each reports <name>_ns
// (per operation) and <name>_allocs (per operation).
var rungNames = []string{
	"rung.eventq.steady", "rung.eventq.rerate", "rung.eventq.deep1m",
	"rung.clock.driver_steady",
	"rung.sched.select_full50", "rung.sched.select_saturated50",
	"rung.sched.select_sparse50", "rung.sched.select_sparse1000",
	"rung.sched.select_default50",
	"rung.harvest.lifecycle",
	"rung.profiler.predict_ml", "rung.profiler.predict_hist",
	"rung.profiler.observe", "rung.profiler.train",
	"rung.safeguard.check", "rung.cluster.start_complete",
	"rung.function.demand", "rung.trace.gen_per_inv",
	"rung.obs.recorder_per_event", "rung.obs.stream_per_event",
	"rung.metrics.summarize_per_sample",
}

// perLayer is the traced pass: one layer per internal package, plus the
// user-visible quantities that cannot carry a bound (exact simulated
// results, which vary by seed, and tails too noisy to gate on).
var perLayer = append([]metricDef{
	// Replay event queue (sim.Engine behind the timing clock.Runner).
	{"eventq.push_s", "s"}, {"eventq.push_n", "count"},
	{"eventq.cancel_s", "s"}, {"eventq.cancel_n", "count"},
	{"eventq.pop_s", "s"}, {"eventq.fired_n", "count"},
	{"eventq.max_len", "count"}, {"eventq.ns_per_event", "ns"},
	{"eventq.cancel_frac", "frac"},
	// Callback self time by lifecycle phase; with eventq.* it sums to
	// run.span_s.
	{"phase.arrive_s", "s"}, {"phase.arrive_n", "count"},
	{"phase.decide_s", "s"}, {"phase.decide_n", "count"},
	{"phase.start_s", "s"}, {"phase.start_n", "count"},
	{"phase.complete_s", "s"}, {"phase.complete_n", "count"},
	{"phase.fault_s", "s"}, {"phase.fault_n", "count"},
	{"phase.tick_s", "s"}, {"phase.tick_n", "count"},
	{"phase.other_s", "s"}, {"run.span_s", "s"},
	// Exact model counts from the counting obs.Tracer.
	{"sched.decisions_n", "count"}, {"sched.accel_frac", "frac"},
	{"cluster.cold_start_n", "count"}, {"cluster.warm_frac", "frac"},
	{"harvest.harvest_n", "count"}, {"harvest.loan_grant_n", "count"},
	{"harvest.loan_revoke_n", "count"}, {"harvest.reharvest_n", "count"},
	{"harvest.expire_n", "count"}, {"harvest.bonus_n", "count"},
	{"harvest.loan_kept_frac", "frac"}, {"safeguard.trigger_n", "count"},
	{"platform.peak_pending", "count"}, {"platform.retries_n", "count"},
	{"platform.abandon_n", "count"}, {"faults.crash_abort_n", "count"},
	{"faults.oom_kill_n", "count"},
	// Mean per-invocation latency split (metrics.BreakdownFromEvents):
	// simulated seconds on replay, wall seconds on live.
	{"simtime.sched_s", "s"}, {"simtime.startup_s", "s"},
	{"simtime.exec_s", "s"}, {"simtime.stall_s", "s"},
	// The simulated result itself: exact per seed, pinned by the digest.
	{"sim_p99_latency_s", "s"}, {"sim_cpu_util", "frac"},
	{"failed_frac", "frac"},
	// Set-up and epilogue of a replay.
	{"trace.gen_s", "s"}, {"platform.new_s", "s"}, {"metrics.report_s", "s"},
	// Live loop (timing clock.Source around the real source).
	{"clock.idle_s", "s"}, {"clock.loop_busy_frac", "frac"},
	{"clock.waits_n", "count"}, {"serve.events_per_inv", "1/inv"},
	{"serve.peak_pending", "count"}, {"serve.shed_n", "count"},
	{"serve.expired_n", "count"}, {"serve.drain_s", "s"},
	{"serve.gen_late_frac", "frac"},
	// HTTP ingress against its in-process twin.
	{"serve.invoke_overhead_p50_ms", "ms"}, {"serve.http_minus_invoke_ms", "ms"},
	{"http_sync_overhead_p95_ms", "ms"}, {"http_ack_inv_per_s", "1/s"},
	{"http_ack_p50_us", "us"}, {"http_ack_p99_us", "us"},
	// Go runtime over the measured section.
	{"rt.gc_cycles_n", "count"}, {"rt.gc_pause_ms", "ms"}, {"rt.alloc_mb", "MB"},
	// Cost of observing.
	{"obs.recorder_overhead_frac", "frac"}, {"trace_overhead_frac", "frac"},
}, rungDefs()...)

func rungDefs() []metricDef {
	var out []metricDef
	for _, name := range rungNames {
		out = append(out, metricDef{name + "_ns", "ns"}, metricDef{name + "_allocs", "count"})
	}
	return out
}

// values holds one run's measurements by metric name.
type values map[string]float64

// project lays the measurements out in catalogue order. A per-layer
// metric a workload does not exercise reads 0; an end-to-end metric must
// have been measured. A name in neither catalogue is a bug here.
func (v values) project(defs []metricDef, required bool) ([]namedValue, error) {
	out := make([]namedValue, 0, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out = append(out, namedValue{d, x})
	}
	known := map[string]bool{}
	for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		known[d.Name] = true
	}
	var stray []string
	for name := range v {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("metrics outside the catalogue: %v", stray)
	}
	return out, nil
}

type namedValue struct {
	metricDef
	Value float64
}
