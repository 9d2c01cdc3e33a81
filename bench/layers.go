package main

import (
	"sync/atomic"
	"time"

	"libra/internal/clock"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/sim"
)

// The traced pass observes the program from the benchmark's side of its
// public interfaces: a timing clock.Runner around the sim engine, a
// counting obs.Tracer, and (live path) a timing clock.Source. Nothing
// inside the program is instrumented, so the decorators survive any
// refactor that keeps clock.Clock and obs.Tracer.

// phase is the lifecycle step a clock callback belongs to.
type phase int

const (
	phNone phase = iota - 1
	phArrive
	phDecide
	phStart
	phComplete
	phFault
	phTick
	phRetry // a failed invocation re-entering a scheduler queue; reported under fault
	nPhases
)

var phaseNames = [nPhases]string{"arrive", "decide", "start", "complete", "fault", "tick", "fault"}

// phaseOfKind maps a lifecycle event to the phase of the callback that
// recorded it first. Pool bookkeeping kinds (harvest, loans, expiry,
// bonus) happen inside every phase and define none. The mapping is by
// the stable JSONL kind, so renaming closures in the program does not
// move time between phases.
func phaseOfKind(k obs.Kind) phase {
	switch k {
	case obs.KindArrival:
		return phArrive
	case obs.KindQueued:
		return phRetry // the arrival callback records Arrival first; Queued first means a retry
	case obs.KindDecision, obs.KindColdStart, obs.KindWarmStart:
		return phDecide
	case obs.KindExecStart, obs.KindSafeguard:
		return phStart
	case obs.KindComplete:
		return phComplete
	case obs.KindOOMKill, obs.KindCrashAbort, obs.KindAbandon, obs.KindDeadline:
		return phFault
	case obs.KindScaleUp, obs.KindScaleDrain, obs.KindScaleDown:
		return phTick
	}
	return phNone
}

// resolvePhase settles a callback's phase from the first defining event
// it recorded and the phase of the callback that scheduled it. The
// parent matters in three places the events cannot tell apart: the
// completion tail (a zero-delay child of the completion callback, which
// may drain the ready queue and so record a decision first), a pickup
// that found no node (records nothing; child of an arrival or a retry),
// and the safeguard/OOM monitors (record nothing unless they fire;
// children of the execution start).
func resolvePhase(label, parent phase) phase {
	switch {
	case parent == phComplete && (label == phNone || label == phDecide):
		return phComplete
	case label != phNone:
		return label
	case parent == phArrive || parent == phRetry:
		return phDecide
	case parent == phStart:
		return phStart
	}
	return phTick
}

// timingRunner is a clock.Runner that times every queue operation of the
// engine it wraps and every callback the engine fires. Time a callback
// spends pushing or cancelling events is charged to the queue, not to
// the callback, so queue time plus callback self time equals the time
// spent inside Run.
type timingRunner struct {
	eng *sim.Engine

	push, cancel, run, callbacks time.Duration
	pushN, cancelN               int64
	self                         [nPhases]time.Duration
	count                        [nPhases]int64

	// State of the callback now running.
	label, parent phase
	child         time.Duration

	free []*timedEvent
}

type timedEvent struct {
	r      *timingRunner
	fn     func()
	parent phase
	fire   func() // e.run, bound once so re-use allocates nothing
}

func newTimingRunner() *timingRunner {
	return &timingRunner{eng: sim.NewEngine(), label: phNone, parent: phNone}
}

var _ clock.Runner = (*timingRunner)(nil)

func (r *timingRunner) Now() float64 { return r.eng.Now() }

func (r *timingRunner) wrap(fn func()) func() {
	var e *timedEvent
	if n := len(r.free); n > 0 {
		e = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		e = &timedEvent{r: r}
		e.fire = e.run
	}
	e.fn = fn
	e.parent = resolvePhase(r.label, r.parent)
	return e.fire
}

func (e *timedEvent) run() {
	r, fn := e.r, e.fn
	r.label, r.parent, r.child = phNone, e.parent, 0
	e.fn = nil
	r.free = append(r.free, e)
	t0 := time.Now()
	fn()
	total := time.Since(t0)
	ph := resolvePhase(r.label, r.parent)
	r.self[ph] += total - r.child
	r.count[ph]++
	r.callbacks += total
	r.label, r.parent = phNone, phNone
}

func (r *timingRunner) Schedule(delay float64, fn func()) clock.Handle {
	wrapped := r.wrap(fn)
	t0 := time.Now()
	h := r.eng.Schedule(delay, wrapped)
	r.pushed(time.Since(t0))
	return h
}

func (r *timingRunner) At(t float64, fn func()) clock.Handle {
	wrapped := r.wrap(fn)
	t0 := time.Now()
	h := r.eng.At(t, wrapped)
	r.pushed(time.Since(t0))
	return h
}

func (r *timingRunner) pushed(d time.Duration) {
	r.push += d
	r.child += d
	r.pushN++
}

func (r *timingRunner) Cancel(h clock.Handle) {
	t0 := time.Now()
	r.eng.Cancel(h)
	d := time.Since(t0)
	r.cancel += d
	r.child += d
	r.cancelN++
}

func (r *timingRunner) Run() {
	t0 := time.Now()
	r.eng.Run()
	r.run += time.Since(t0)
}

// report writes the queue and phase metrics for a Platform.Run that took
// span. pop is what Run spent outside callbacks; other is what
// Platform.Run spent outside Run and outside the queue (building the
// arrival closures, collecting the result).
func (r *timingRunner) report(v values, span time.Duration) {
	pop := r.run - r.callbacks
	fired := int64(r.eng.Fired())
	v["eventq.push_s"] = r.push.Seconds()
	v["eventq.push_n"] = float64(r.pushN)
	v["eventq.cancel_s"] = r.cancel.Seconds()
	v["eventq.cancel_n"] = float64(r.cancelN)
	v["eventq.pop_s"] = pop.Seconds()
	v["eventq.fired_n"] = float64(fired)
	v["eventq.max_len"] = float64(r.eng.MaxQueueLen())
	if fired > 0 {
		v["eventq.ns_per_event"] = float64(r.push+r.cancel+pop) / float64(fired)
	}
	if r.pushN > 0 {
		v["eventq.cancel_frac"] = 1 - float64(fired)/float64(r.pushN)
	}
	accounted := r.push + r.cancel + pop
	for ph := phase(0); ph < nPhases; ph++ {
		v["phase."+phaseNames[ph]+"_s"] += r.self[ph].Seconds()
		v["phase."+phaseNames[ph]+"_n"] += float64(r.count[ph])
		accounted += r.self[ph]
	}
	v["phase.other_s"] = (span - accounted).Seconds()
	v["run.span_s"] = span.Seconds()
}

// sampleEvery keeps the full event list of one invocation in this many.
const sampleEvery = 64

// countingTracer counts lifecycle events per kind, keeps the events of
// one invocation in sampleEvery for the latency split, and labels the
// running callback of a timingRunner.
type countingTracer struct {
	counts  [64]int64 // indexed by obs.Kind
	sampled []obs.Event
	runner  *timingRunner // nil on the live path
}

func (t *countingTracer) Record(ev obs.Event) {
	if int(ev.Kind) < len(t.counts) {
		t.counts[ev.Kind]++
	}
	if ev.Inv >= 0 && ev.Inv%sampleEvery == 0 {
		t.sampled = append(t.sampled, ev)
	}
	if r := t.runner; r != nil && r.label == phNone {
		r.label = phaseOfKind(ev.Kind)
	}
}

func (t *countingTracer) n(k obs.Kind) float64 { return float64(t.counts[k]) }

// report writes the exact per-kind counts and the mean latency split of
// the sampled invocations.
func (t *countingTracer) report(v values) []metrics.InvBreakdown {
	v["sched.decisions_n"] = t.n(obs.KindDecision)
	v["cluster.cold_start_n"] = t.n(obs.KindColdStart)
	if starts := t.n(obs.KindColdStart) + t.n(obs.KindWarmStart); starts > 0 {
		v["cluster.warm_frac"] = t.n(obs.KindWarmStart) / starts
	}
	v["harvest.harvest_n"] = t.n(obs.KindHarvest)
	v["harvest.loan_grant_n"] = t.n(obs.KindLoanGrant)
	v["harvest.loan_revoke_n"] = t.n(obs.KindLoanRevoke)
	v["harvest.reharvest_n"] = t.n(obs.KindReharvest)
	v["harvest.expire_n"] = t.n(obs.KindExpire)
	v["harvest.bonus_n"] = t.n(obs.KindBonus)
	if g := t.n(obs.KindLoanGrant); g > 0 {
		v["harvest.loan_kept_frac"] = 1 - t.n(obs.KindLoanRevoke)/g
	}
	v["safeguard.trigger_n"] = t.n(obs.KindSafeguard)
	v["faults.crash_abort_n"] = t.n(obs.KindCrashAbort)
	v["faults.oom_kill_n"] = t.n(obs.KindOOMKill)

	spans := metrics.BreakdownFromEvents(t.sampled)
	sum := metrics.SummarizeBreakdowns(spans)
	v["simtime.sched_s"] = sum.Sched
	v["simtime.startup_s"] = sum.Startup
	v["simtime.exec_s"] = sum.Exec
	v["simtime.stall_s"] = sum.Stall
	return spans
}

// timingSource is a clock.Source that times the waits of the live
// driver loop: the loop is busy whenever it is not inside WaitUntil.
type timingSource struct {
	src    clock.Source
	idleNs atomic.Int64
	waits  atomic.Int64
}

func newTimingSource() *timingSource { return &timingSource{src: clock.NewRealSource()} }

func (s *timingSource) Now() float64 { return s.src.Now() }

func (s *timingSource) WaitUntil(t float64, wake <-chan struct{}) {
	t0 := time.Now()
	s.src.WaitUntil(t, wake)
	s.idleNs.Add(int64(time.Since(t0)))
	s.waits.Add(1)
}

func (s *timingSource) idle() time.Duration { return time.Duration(s.idleNs.Load()) }
