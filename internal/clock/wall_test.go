package clock_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/sim"
)

// runScript schedules the same tangled event pattern on any Clock and
// records the order callbacks fire in: same-instant FIFO ties, nested
// scheduling from inside callbacks, cancellation of pending events, and
// a ticker that stops itself. The sim engine defines the reference
// order; the wall driver under a manual source must reproduce it.
func runScript(t *testing.T, c clock.Runner) []string {
	t.Helper()
	var got []string
	mark := func(label string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%g", label, c.Now())) }
	}
	c.Schedule(0.5, mark("a"))
	c.Schedule(0.5, mark("b"))
	c.Schedule(0.25, func() {
		mark("nest")()
		c.Schedule(0.25, mark("nested-child"))
		c.Schedule(0, mark("now"))
	})
	doomed := c.Schedule(0.75, mark("doomed"))
	c.Schedule(0.6, func() {
		mark("killer")()
		c.Cancel(doomed)
	})
	var tk *clock.Ticker
	ticks := 0
	tk = clock.Every(c, 0.3, func() {
		ticks++
		mark(fmt.Sprintf("tick%d", ticks))()
		if ticks == 3 {
			tk.Stop()
		}
	})
	c.At(1.5, mark("late"))
	c.Run()
	return got
}

// TestDriverMatchesEngineOrder pins the tentpole equivalence: the wall
// driver under a mocked time source fires events in exactly the
// (time, seq) order the sim engine does, so the platform behaves
// identically on either substrate.
func TestDriverMatchesEngineOrder(t *testing.T) {
	ref := runScript(t, sim.NewEngine())
	got := runScript(t, clock.NewDriver(clock.NewManualSource()))
	if len(ref) == 0 {
		t.Fatal("reference run fired nothing")
	}
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatalf("wall driver order diverged from sim engine:\n sim:  %v\n wall: %v", ref, got)
	}
}

// TestDriverRunAdvancesToLastEvent checks the manual-source replay
// semantics Run depends on: waits jump time instead of sleeping.
func TestDriverRunAdvancesToLastEvent(t *testing.T) {
	src := clock.NewManualSource()
	d := clock.NewDriver(src)
	var at float64
	d.Schedule(2.5, func() { at = d.Now() })
	d.Run()
	if at != 2.5 {
		t.Fatalf("callback saw Now()=%g, want 2.5", at)
	}
	if d.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", d.Pending())
	}
}

// TestDriverStaleHandleCancel checks the generation discipline: a handle
// to a fired event must not cancel the record's next occupant.
func TestDriverStaleHandleCancel(t *testing.T) {
	d := clock.NewDriver(clock.NewManualSource())
	h := d.Schedule(0.1, func() {})
	d.Run() // fires and recycles the record
	fired := false
	h2 := d.Schedule(0.1, func() { fired = true }) // reuses the freed record
	d.Cancel(h)                                    // stale: must be a no-op
	d.Run()
	if !fired {
		t.Fatal("stale Cancel killed the recycled record's new event")
	}
	if h2.Live() {
		t.Fatal("handle still live after its event fired")
	}
}

// TestDriverScheduleSteadyStateAllocs guards the free-list recycling:
// once warm, a schedule→fire cycle must not allocate, same as the sim
// engine's guarantee that PR 5's drain benchmarks rely on.
func TestDriverScheduleSteadyStateAllocs(t *testing.T) {
	d := clock.NewDriver(clock.NewManualSource())
	fn := func() {}
	for i := 0; i < 100; i++ { // warm the free list and heap capacity
		d.Schedule(0.001, fn)
	}
	d.Run()
	avg := testing.AllocsPerRun(1000, func() {
		d.Schedule(0.001, fn)
		d.Run()
	})
	if avg != 0 {
		t.Fatalf("schedule/fire cycle allocates %.1f/op, want 0", avg)
	}
}

// While a callback runs Now is pinned to its fire time; the pin must not
// outlive the loop. Stop called from a callback makes Serve return right
// after that callback, and Now has to follow the source again: a shutdown
// path that stamps its report with Now would otherwise read the time of
// the last event for the rest of the process.
func TestDriverNowUnpinnedAfterStopFromCallback(t *testing.T) {
	src := clock.NewManualSource()
	d := clock.NewDriver(src)
	d.Schedule(1, func() {
		if got := d.Now(); got != 1 {
			t.Errorf("Now()=%g inside the callback, want its fire time 1", got)
		}
		d.Stop()
	})
	d.Serve(context.Background())
	src.Advance(10)
	if got := d.Now(); got != 11 {
		t.Fatalf("Now()=%g after Serve returned with the source at 11: still pinned to the last callback", got)
	}
	// Run leaves the loop the same way, through an empty queue.
	d.Schedule(1, func() {})
	d.Run()
	src.Advance(5)
	if got := d.Now(); got != 17 {
		t.Fatalf("Now()=%g after Run returned with the source at 17", got)
	}
}

// TestLiveInvocationSteadyStateAllocs is the pin above for the whole live
// path: a platform in serving mode on the wall driver (manual source),
// with as many SYN invocations in flight as it will ever hold, ingests
// and completes ten thousand more and allocates for none of them — event
// records, scheduling and execution records and, since live invocations
// are recycled (platform.newInvocation), the cluster.Invocation itself
// all come off free lists. Nobody waits on these invocations, as nobody
// waits on a load generator's. What the run still allocates is the
// utilisation tracker's growing sample slice and the estimator's
// bookkeeping, a few dozen allocations in all; one per invocation, the
// cost before recycling, is ten thousand.
func TestLiveInvocationSteadyStateAllocs(t *testing.T) {
	const (
		inFlight = 256
		warm     = 4 * inFlight
		measured = 10_000
	)
	if _, ok := function.ByName("SYN"); !ok {
		if err := function.Register(function.Synthetic("SYN", 100, 64, 0.05, 0)); err != nil {
			t.Fatal(err)
		}
	}
	d := clock.NewDriver(clock.NewManualSource())
	cfg := platform.PresetLibra(platform.MultiNode(), 1)
	cfg.DispatchTime = 2e-5
	p, err := platform.New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		next, done    int64
		before, after runtime.MemStats
	)
	ingest := func() {
		next++
		if err := p.Ingest(next, "SYN", function.Input{Size: 1, Seed: uint64(next)}); err != nil {
			t.Errorf("Ingest(%d): %v", next, err)
		}
	}
	p.StartServing(platform.ServeHooks{
		// Closed loop: every completion admits the next arrival, so the
		// in-flight count, and with it every free list's high-water mark,
		// is set by the first batch.
		Done: func(platform.InvRecord) {
			switch done++; done {
			case warm:
				runtime.ReadMemStats(&before)
			case warm + measured:
				runtime.ReadMemStats(&after)
				d.Stop()
				return
			}
			ingest()
		},
		Abandon: func(inv *cluster.Invocation) { t.Errorf("invocation %d abandoned", inv.ID) },
	})
	d.Submit(func() {
		for i := 0; i < inFlight; i++ {
			ingest()
		}
	})
	d.Serve(context.Background())
	p.StopServing()
	if done != warm+measured {
		t.Fatalf("%d invocations completed, want %d", done, warm+measured)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d live invocations", allocs, measured)
	if allocs*100 >= measured {
		t.Fatalf("%d allocations over %d live invocations, want under 0.01 an invocation", allocs, measured)
	}
}
