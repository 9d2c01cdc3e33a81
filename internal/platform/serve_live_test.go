package platform_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/platform/invariants"
)

// liveHarness runs a platform in live-serving mode on a wall driver over
// a manual time source — the same substrate the serve layer uses. Unlike
// a replay, the live loop never drains on its own (pings and fault
// schedules re-arm forever), so the harness runs Serve on a goroutine
// and stops it once every ingested invocation has left through a hook.
type liveHarness struct {
	drv *clock.Driver
	p   *platform.Platform

	done      atomic.Int64
	abandoned atomic.Int64
	expired   atomic.Int64
	lastDone  atomic.Int64 // ID of the most recent Done invocation
}

func newLiveHarness(t *testing.T, cfg platform.Config) *liveHarness {
	t.Helper()
	drv := clock.NewDriver(clock.NewManualSource())
	p, err := platform.New(drv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &liveHarness{drv: drv, p: p}
	p.StartServing(platform.ServeHooks{
		Done: func(rec platform.InvRecord) {
			h.lastDone.Store(int64(rec.Inv.ID))
			h.done.Add(1)
		},
		Abandon: func(inv *cluster.Invocation) { h.abandoned.Add(1) },
		Expired: func(inv *cluster.Invocation) { h.expired.Add(1) },
	})
	return h
}

func (h *liveHarness) finished() int64 {
	return h.done.Load() + h.abandoned.Load() + h.expired.Load()
}

// serveUntil runs the event loop until want invocations have finished
// (any exit), then stops it and returns the platform result.
func (h *liveHarness) serveUntil(t *testing.T, want int64) *platform.Result {
	t.Helper()
	loopDone := make(chan struct{})
	go func() {
		h.drv.Serve(context.Background())
		close(loopDone)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for h.finished() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.drv.Stop()
	<-loopDone
	if got := h.finished(); got < want {
		t.Fatalf("only %d of %d invocations finished before the harness deadline", got, want)
	}
	return h.p.StopServing()
}

func liveApp(t *testing.T) (string, function.Input) {
	t.Helper()
	apps := function.Apps()
	if len(apps) == 0 {
		t.Fatal("empty function catalog")
	}
	lo, _ := apps[0].SizeRange()
	return apps[0].Name, function.Input{Size: lo, Seed: 1}
}

// TestLiveDeadlineExpiredWhileQueued checks that an invocation whose
// deadline passes while it sits in the scheduler's decision queue is
// dropped through the Expired hook — never executed, never abandoned.
func TestLiveDeadlineExpiredWhileQueued(t *testing.T) {
	cfg := platform.PresetLibra(platform.MultiNode(), 1)
	// The default dispatch handling time (25 ms) is the minimum queueing
	// delay, so a deadline tighter than that is guaranteed to pass while
	// the invocation is still queued.
	app, in := liveApp(t)
	h := newLiveHarness(t, cfg)
	h.drv.Submit(func() {
		if err := h.p.IngestDeadline(1, app, in, h.drv.Now()+0.001); err != nil {
			t.Errorf("IngestDeadline: %v", err)
		}
	})
	res := h.serveUntil(t, 1)

	if h.expired.Load() != 1 {
		t.Fatalf("expired hooks = %d, want 1", h.expired.Load())
	}
	if h.done.Load() != 0 || h.abandoned.Load() != 0 {
		t.Fatalf("done=%d abandoned=%d, want 0/0 — the expired invocation leaked into another exit",
			h.done.Load(), h.abandoned.Load())
	}
	if res.DeadlineExpired != 1 {
		t.Fatalf("result.DeadlineExpired = %d, want 1", res.DeadlineExpired)
	}
}

// TestLiveNoDeadlineCompletes pins the control: the same ingest without
// a deadline completes normally through the Done hook.
func TestLiveNoDeadlineCompletes(t *testing.T) {
	cfg := platform.PresetLibra(platform.MultiNode(), 1)
	app, in := liveApp(t)
	h := newLiveHarness(t, cfg)
	h.drv.Submit(func() {
		if err := h.p.Ingest(1, app, in); err != nil {
			t.Errorf("Ingest: %v", err)
		}
	})
	res := h.serveUntil(t, 1)
	if h.done.Load() != 1 || h.lastDone.Load() != 1 {
		t.Fatalf("done hooks = %d (last id %d), want 1 (id 1)", h.done.Load(), h.lastDone.Load())
	}
	if res.DeadlineExpired != 0 {
		t.Fatalf("result.DeadlineExpired = %d, want 0", res.DeadlineExpired)
	}
}

// TestLiveRetryBackoffUnderWallDriver exercises the crash-retry-backoff
// machinery on the wall driver: node crashes strike in-flight work,
// retries re-enter the queue after backoff, and every invocation leaves
// through exactly one hook. This is the onAbandon/retry path the sim
// fault tests cover, proven on the live clock.
func TestLiveRetryBackoffUnderWallDriver(t *testing.T) {
	cfg := platform.PresetLibra(platform.MultiNode(), 5)
	cfg.Faults = faults.Config{CrashMTBF: 2, MTTR: 0.5}
	app, in := liveApp(t)
	h := newLiveHarness(t, cfg)
	const n = 300
	h.drv.Submit(func() {
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			// Spread arrivals across a few crash cycles.
			h.drv.Schedule(float64(i)*0.02, func() {
				if err := h.p.IngestDeadline(id, app, in, 0); err != nil {
					t.Errorf("IngestDeadline(%d): %v", id, err)
				}
			})
		}
	})
	res := h.serveUntil(t, n)

	if res.Faults.Crashes == 0 {
		t.Fatal("no crashes fired; the test exercises nothing")
	}
	if res.Faults.Retries == 0 {
		t.Fatal("crashes fired but no retries happened")
	}
	if got := h.finished(); got != n {
		t.Fatalf("conservation broken: %d done + %d abandoned + %d expired != %d ingested",
			h.done.Load(), h.abandoned.Load(), h.expired.Load(), n)
	}
	if res.LeakedLoans != 0 {
		t.Fatalf("leaked loans = %d, want 0", res.LeakedLoans)
	}
	if res.CapacityViolations != 0 {
		t.Fatalf("capacity violations = %d, want 0", res.CapacityViolations)
	}
}

// TestLiveDeadlineSurvivesRetry checks the combined path: a deadline
// tight enough that a crash-triggered retry cannot make it — the
// invocation expires at its post-backoff pickup instead of burning a
// placement.
func TestLiveDeadlineSurvivesRetry(t *testing.T) {
	cfg := platform.PresetLibra(platform.MultiNode(), 5)
	cfg.Faults = faults.Config{CrashMTBF: 1.5, MTTR: 0.5, BackoffBase: 2}
	app, in := liveApp(t)
	h := newLiveHarness(t, cfg)
	const n = 300
	h.drv.Submit(func() {
		for i := 0; i < n; i++ {
			id := int64(i + 1)
			h.drv.Schedule(float64(i)*0.02, func() {
				// A 1s deadline is far beyond first-attempt latency but
				// inside the 2s retry backoff: only crash victims expire.
				if err := h.p.IngestDeadline(id, app, in, h.drv.Now()+1.0); err != nil {
					t.Errorf("IngestDeadline(%d): %v", id, err)
				}
			})
		}
	})
	res := h.serveUntil(t, n)

	if res.Faults.Crashes == 0 {
		t.Fatal("no crashes fired; the test exercises nothing")
	}
	if h.expired.Load() == 0 {
		t.Fatal("no deadline expiries — retried invocations should blow their 1s deadline during the 2s backoff")
	}
	if got := h.finished(); got != n {
		t.Fatalf("conservation broken: %d done + %d abandoned + %d expired != %d ingested",
			h.done.Load(), h.abandoned.Load(), h.expired.Load(), n)
	}
	if res.DeadlineExpired != int(h.expired.Load()) {
		t.Fatalf("result.DeadlineExpired = %d, hook saw %d", res.DeadlineExpired, h.expired.Load())
	}
}

// TestLiveRecycledRecordsUnderFaults is the platform's half of the
// recycling contract: a completed invocation's record becomes a later
// arrival's, so it may be parked only when nothing else holds it. A
// record parked while a retry closure, a backoff timer or the ready
// queue still points at it would be filled in for a second invocation
// and leave through two exits. Crashes, OOM kills and deadlines are all
// on — under Libra, whose safeguard leaves the kernel nothing to kill,
// and under Freyr, which gets killed — the ten applications arrive with
// sampled inputs over a hundred crash cycles, so completions refill the
// free list while retries are pending, and every exit is checked against
// what was ingested under that ID: once only, with the arrival's own
// input and arrival time and, for a completion, a latency that is its
// own End − Arrival. The conservation audit runs at every exit and on a
// 10 ms ticker: two scheduling records sharing one invocation
// double-count a reservation.
func TestLiveRecycledRecordsUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name     string
		preset   func(platform.Testbed, int64) platform.Config
		oomKills bool
	}{
		{"Libra", platform.PresetLibra, false},
		{"Freyr", platform.PresetFreyr, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.preset(platform.MultiNode(), 5)
			cfg.Faults = faults.Config{CrashMTBF: 20, MTTR: 2, BackoffBase: 2, OOMKill: true}
			res := runRecycledUnderFaults(t, cfg)
			if res.Faults.CrashAborts == 0 || res.DeadlineExpired == 0 || res.Faults.Abandoned == 0 ||
				(res.Faults.OOMKills > 0) != tc.oomKills {
				t.Fatalf("crash aborts %d, OOM kills %d, expiries %d, abandoned %d: the run must see each (OOM kills: %v)",
					res.Faults.CrashAborts, res.Faults.OOMKills, res.DeadlineExpired, res.Faults.Abandoned, tc.oomKills)
			}
		})
	}
}

func runRecycledUnderFaults(t *testing.T, cfg platform.Config) *platform.Result {
	apps, rng := function.Apps(), rand.New(rand.NewSource(5))
	drv := clock.NewDriver(clock.NewManualSource())
	p, err := platform.New(drv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &liveHarness{drv: drv, p: p}
	const n = 3000
	var (
		arrivedAt [n + 1]float64
		exited    [n + 1]bool
		recycled  = make(map[*cluster.Invocation]int)
		audits    int
	)
	audit := func() {
		audits++
		if err := invariants.Check(p.Nodes()); err != nil {
			t.Errorf("t=%g: %v", drv.Now(), err)
		}
	}
	exit := func(how string, inv *cluster.Invocation, count *atomic.Int64) {
		id := int64(inv.ID)
		switch {
		case id < 1 || id > n:
			t.Errorf("%s hook for invocation %d, which was never ingested", how, id)
		case exited[id]:
			t.Errorf("invocation %d left twice (again through %s)", id, how)
		case inv.Input.Seed != uint64(id) || inv.Arrival != arrivedAt[id]:
			t.Errorf("%s: invocation %d carries seed %d and arrival %g, ingested with seed %d at %g",
				how, id, inv.Input.Seed, inv.Arrival, id, arrivedAt[id])
		default:
			exited[id] = true
		}
		audit()
		count.Add(1)
	}
	p.StartServing(platform.ServeHooks{
		Done: func(rec platform.InvRecord) {
			if got := rec.Inv.End - rec.Inv.Arrival; got != rec.Latency {
				t.Errorf("invocation %d: latency %g, End-Arrival %g", rec.Inv.ID, rec.Latency, got)
			}
			recycled[rec.Inv]++
			exit("Done", rec.Inv, &h.done)
		},
		Abandon: func(inv *cluster.Invocation) { exit("Abandon", inv, &h.abandoned) },
		Expired: func(inv *cluster.Invocation) { exit("Expired", inv, &h.expired) },
	})
	drv.Submit(func() {
		clock.Every(drv, 0.01, audit)
		for i := 1; i <= n; i++ {
			id := int64(i)
			spec := apps[i%len(apps)]
			in := spec.SampleInput(rng)
			in.Seed = uint64(id)
			drv.Schedule(float64(i)*0.5, func() {
				arrivedAt[id] = drv.Now()
				// Every third invocation has a deadline: the long ones, the
				// capacity-blocked and most crash victims miss it. The rest
				// retry until their budget ends.
				deadline := 0.0
				if id%3 == 0 {
					deadline = drv.Now() + 30
				}
				if err := p.IngestDeadline(id, spec.Name, in, deadline); err != nil {
					t.Errorf("IngestDeadline(%d): %v", id, err)
				}
			})
		}
	})
	res := h.serveUntil(t, n)

	if got := h.finished(); got != n {
		t.Fatalf("%d invocations left through a hook, %d were ingested", got, n)
	}
	reused := 0
	for _, k := range recycled {
		if k > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no invocation record completed twice: nothing was recycled")
	}
	if res.LeakedLoans != 0 || res.CapacityViolations != 0 {
		t.Fatalf("leaked loans %d, capacity violations %d, want 0 and 0", res.LeakedLoans, res.CapacityViolations)
	}
	t.Logf("%d records served %d completions; %d crash aborts, %d OOM kills, %d expired, %d abandoned, %d audits",
		len(recycled), h.done.Load(), res.Faults.CrashAborts, res.Faults.OOMKills, res.DeadlineExpired, res.Faults.Abandoned, audits)
	return res
}
