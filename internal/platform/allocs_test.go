package platform

import (
	"testing"
	"unsafe"

	"libra/internal/trace"
)

// replayAllocsPerInvocation replays rounds+1 back-to-back samples of the
// figs2-point Jetstream trace on one platform and reports the heap
// allocations of a replay per invocation, the first replay (AllocsPerRun's
// warm-up call) not counted: by the second, the pooled records — events,
// scheduling and execution records, loans, tracking objects — and every
// scratch buffer stand at their high-water marks, and what is left is
// what a steady-state invocation costs. Each replay still pays Run's own
// set-up (result, sample and record slices, tickers), a few hundred
// allocations.
func replayAllocsPerInvocation(t *testing.T, cfg Config, n, rounds int) float64 {
	t.Helper()
	p := mustNew(cfg)
	sets := make([]trace.Set, rounds+1)
	for i := range sets {
		sets[i] = trace.JetstreamSet(n, 750, int64(42+i))
	}
	next := 0
	allocs := testing.AllocsPerRun(rounds, func() {
		set := sets[next]
		next++
		// Each sample starts where the last one ended.
		shift := p.clk.Now()
		for i := range set.Invocations {
			set.Invocations[i].Arrival += shift
			set.Invocations[i].ID += int64(next * n)
		}
		if res := p.Run(set); len(res.Records) != n {
			t.Fatalf("replay %d completed %d of %d invocations", next, len(res.Records), n)
		}
	})
	return allocs / float64(n)
}

// The Default preset runs the whole lifecycle — arrival, pickup, init,
// completion, tail — and nothing else, so this pins the event path itself:
// an invocation allocates nothing once the pools are warm. At the parent
// of the change that made it so the figure was 4.0 (the pickup, init and
// completion closures and the Invocation).
func TestDefaultReplayAllocatesNothingPerInvocation(t *testing.T) {
	got := replayAllocsPerInvocation(t, PresetDefault(Jetstream(50, 4), 42), 20_000, 2)
	if got > 0.1 {
		t.Fatalf("Default replay allocates %.3f times per invocation, want <= 0.1", got)
	}
	t.Logf("Default replay: %.4f allocations per invocation", got)
}

// Libra adds the profiler, the harvest pools (per-source records with
// their loan lists, and loans — all recycled) and re-rating on every loan.
// The bound is the measured figure, 0.0158, plus a tenth; before the event
// path was made allocation-free it was 6.3 on the same trace shape.
func TestLibraReplayAllocationBudget(t *testing.T) {
	const budget = 0.0175
	got := replayAllocsPerInvocation(t, PresetLibra(Jetstream(50, 4), 42), 20_000, 2)
	if got > budget {
		t.Fatalf("Libra replay allocates %.4f times per invocation, want <= %.4f", got, budget)
	}
	t.Logf("Libra replay: %.4f allocations per invocation", got)
}

// A scheduling record exists per invocation that is queued or executing;
// live serving holds tens of thousands, and its peak memory follows. The
// record fills the 80-byte size class exactly, so a new field has to
// displace one.
func TestQueuedStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(queued{}); got > 80 {
		t.Errorf("queued is %d bytes, over the 80-byte size class", got)
	}
}
