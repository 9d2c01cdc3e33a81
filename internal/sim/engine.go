// Package sim provides a deterministic discrete-event simulation engine
// with a virtual clock. It is the substrate on which the serverless
// cluster, the harvest pools and the schedulers run: every latency the
// experiments report is virtual time accumulated by events scheduled here.
//
// The engine is single-goroutine by design. Determinism matters more than
// parallel speed for reproducing the paper's figures: two events scheduled
// for the same instant fire in scheduling order (a monotone sequence number
// breaks ties), so a run is a pure function of (workload, seed).
//
// Engine is the virtual-time implementation of clock.Clock — the same
// platform code runs live on the wall-clock driver in internal/clock.
// Both implementations obey the Clock contract spelled out in that
// package's doc: monotonic Now, FIFO ordering of same-instant events,
// serialized callbacks, and generation-checked no-op cancellation.
//
// Event records are pooled: once an event fires or a cancelled event is
// dropped from the queue, its record is recycled for the next Schedule
// call. Handles are generation-checked so a caller holding a handle to a
// recycled event cannot cancel its successor — the cluster routinely
// cancels events that have already fired (completion re-rating, the
// safeguard and OOM timers), and those stale cancels must stay no-ops.
//
// Beside the heap the engine has a second lane for a batch that arrives
// already sorted by time (Feed — a trace's arrivals): an index into the
// caller's data instead of one heap slot, record and closure per entry.
// Each entry holds the sequence number the equivalent At call would
// have been given, and Step fires the smaller of the two lanes' heads
// under the same (at, seq) order, so a fed run is the same program as
// one that scheduled every entry with At.
package sim

import (
	"fmt"
	"math"

	"libra/internal/clock"
	"libra/internal/eventq"
)

// Event is a scheduled callback record, owned by the engine and recycled
// after it fires. Callers never hold *Event directly; Schedule/At return
// a Handle instead. Its order key (at, seq) lives in the heap slot that
// points at it; at is repeated here for Handle.Time.
type Event struct {
	at       float64
	gen      uint32
	lane     int32 // owning lane in the sharded engine; always 0 here
	fn       func()
	canceled bool
	// inBatch is the sharded engine's mark for a record it has popped into
	// the running batch but not yet released: a cancel that finds it has no
	// heap slot to account for. The serial engine releases a record before
	// its callback runs, so no live handle ever sees one out of the heap.
	inBatch bool
}

// Gen implements clock.Record.
func (ev *Event) Gen() uint32 { return ev.gen }

// EventCanceled implements clock.Record.
func (ev *Event) EventCanceled() bool { return ev.canceled }

// EventTime implements clock.Record.
func (ev *Event) EventTime() float64 { return ev.at }

// Handle identifies a scheduled event for cancellation. It is the
// driver-agnostic clock.Handle: the zero Handle is inert, and a handle
// expires as soon as its event fires or its cancellation is collected —
// the underlying record may then be recycled, and the stale handle keeps
// refusing to act on the new occupant (generation check).
type Handle = clock.Handle

// eventHeap is the (at, seq) queue of both engines: eventq's key-inline
// 4-ary heap over their shared record type.
type eventHeap = eventq.Heap[*Event]

// compactMin is the floor below which cancelled events are left parked in
// the queue: compaction only pays off once the dead fraction is large.
const compactMin = 64

// feed is the sorted lane: entries [next, n) of the batch handed to
// Feed are still to fire, entry i at time at(i) with sequence number
// seq0+i. head caches at(next) so Step compares lanes without a call.
type feed struct {
	at      func(i int) float64
	fn      func(i int)
	next, n int
	seq0    uint64
	head    float64
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now       float64
	seq       uint64
	queue     eventHeap
	feed      feed
	ncanceled int      // cancelled events still parked in the queue
	free      []*Event // recycled event records
	fired     uint64
	maxLen    int
	postStep  func()
}

// Engine satisfies the clock contract the platform is written against.
var (
	_ clock.Runner = (*Engine)(nil)
	_ clock.Feeder = (*Engine)(nil)
)

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds. Per the Clock
// contract it is monotonically non-decreasing, and during a callback it
// reads exactly the callback's scheduled fire time.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of live events still queued, unfired feed
// entries included. Cancelled events lazily parked in the queue (see
// Cancel) are not counted: from the caller's perspective they will never
// fire, so "pending" means exactly the events that still can.
func (e *Engine) Pending() int {
	return len(e.queue) - e.ncanceled + e.feed.n - e.feed.next
}

// QueueLen returns the physical length of the heap lane only: cancelled
// events that have not been collected yet count, unfired feed entries do
// not. Diagnostics only — Pending is the semantic count.
func (e *Engine) QueueLen() int { return len(e.queue) }

// Fired returns how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// alloc returns a fresh or recycled event record.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release recycles an event record once it has fired or its cancellation
// has been collected. Bumping the generation invalidates every handle
// still pointing at the record.
func (e *Engine) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// Schedule queues fn to run after delay seconds of virtual time.
// A negative delay is treated as zero (fires at the current instant, after
// all callbacks already queued for this instant).
func (e *Engine) Schedule(delay float64, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At queues fn to run at absolute virtual time t. Scheduling into the past
// panics: that is always a logic bug in the caller, and silently clamping
// would corrupt causality in the experiments. (The wall-clock driver
// clamps instead — real time cannot be replayed; see clock.Driver.At.)
func (e *Engine) At(t float64, fn func()) Handle {
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%g, now=%g)", t, e.now))
	}
	ev := e.alloc()
	ev.at, ev.fn = t, fn
	e.queue.Push(t, e.seq, ev)
	e.seq++
	if len(e.queue) > e.maxLen {
		e.maxLen = len(e.queue)
	}
	return clock.NewHandle(ev, ev.gen)
}

// Feed implements clock.Feeder: fn(i) runs at virtual time at(i) for
// every 0 ≤ i < n, exactly as if each entry had been scheduled by an At
// call made now, in index order — the block of n sequence numbers is
// reserved here. The entries take no heap slot, event record or closure.
// Feed panics when at is not non-decreasing, yields NaN or starts before
// Now, and when an earlier feed still has unfired entries.
func (e *Engine) Feed(n int, at func(i int) float64, fn func(i int)) {
	if n <= 0 {
		return
	}
	if e.feed.next < e.feed.n {
		panic(fmt.Sprintf("sim: Feed with %d entries of an earlier feed still pending", e.feed.n-e.feed.next))
	}
	prev := e.now
	for i := 0; i < n; i++ {
		t := at(i)
		if !(t >= prev) { // also catches NaN
			panic(fmt.Sprintf("sim: feed entry %d at t=%g is NaN or earlier than its predecessor (%g; now=%g)", i, t, prev, e.now))
		}
		prev = t
	}
	e.feed = feed{at: at, fn: fn, n: n, seq0: e.seq, head: at(0)}
	e.seq += uint64(n)
}

// feedFirst reports whether the feed's head fires before the heap's top
// under the engine's (at, seq) order.
func (e *Engine) feedFirst() bool {
	f := &e.feed
	if f.next >= f.n {
		return false
	}
	if len(e.queue) == 0 {
		return true
	}
	top := &e.queue[0]
	if f.head != top.At {
		return f.head < top.At
	}
	return f.seq0+uint64(f.next) < top.Seq
}

// Cancel marks the handled event so it will not fire, per the Clock
// contract: cancelling an already-fired, already-cancelled, stale
// (recycled) or zero handle is a no-op, as is a handle issued by another
// clock implementation. The event record stays parked in the queue (lazy
// deletion) and is collected either when it surfaces at the top or when
// cancelled records pile up past the compaction threshold — so a cancel
// is O(1) instead of the O(log n) heap.Remove, which dominates the
// cluster's re-rating churn.
func (e *Engine) Cancel(h Handle) {
	ev, ok := h.Impl().(*Event)
	if !ok || ev.gen != h.Gen() || ev.canceled {
		return
	}
	// A live handle means the record is still in the heap: it is released,
	// and every handle to it killed, before its callback runs.
	ev.canceled = true
	e.ncanceled++
	if e.ncanceled > compactMin && e.ncanceled*2 > len(e.queue) {
		e.compact()
	}
}

// compact drops every cancelled record from the queue in one pass and
// re-establishes the heap invariant. Fire order is unaffected: the heap
// comparator is a strict total order on (at, seq), so any valid heap over
// the same live set pops in the same sequence.
func (e *Engine) compact() {
	e.queue = dropCanceled(e.queue, e.release)
	e.ncanceled = 0
}

// dropCanceled filters q in place down to its live entries, hands every
// cancelled record to release, and re-heapifies what is left.
func dropCanceled(q eventHeap, release func(*Event)) eventHeap {
	live := q[:0]
	for _, s := range q {
		if s.Ev.canceled {
			release(s.Ev)
		} else {
			live = append(live, s)
		}
	}
	clear(q[len(live):])
	live.Init()
	return live
}

// Step runs the next live event — the heap's top or the feed's head,
// whichever is first. It returns false when no live events remain in
// either lane.
func (e *Engine) Step() bool {
	for {
		if e.feedFirst() {
			e.fireFeed()
			return true
		}
		if len(e.queue) == 0 {
			return false
		}
		ev := e.queue.Pop()
		if ev.canceled {
			e.ncanceled--
			e.release(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		// Recycle before running the callback: any handle to this event is
		// dead the instant it fires (generation bump), and the callback's
		// own Schedule calls can reuse the record immediately.
		e.release(ev)
		fn()
		if e.postStep != nil {
			e.postStep()
		}
		return true
	}
}

// fireFeed runs the feed's head entry as Step runs a heap event.
func (e *Engine) fireFeed() {
	f := &e.feed
	i, fn := f.next, f.fn
	e.now = f.head
	e.fired++
	// Advance before running the callback, as the heap lane recycles
	// before it: the entry is spent the instant it fires.
	if f.next++; f.next < f.n {
		f.head = f.at(f.next)
	} else {
		*f = feed{} // let go of the caller's data
	}
	fn(i)
	if e.postStep != nil {
		e.postStep()
	}
}

// Run executes events until both lanes drain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with fire time ≤ t, then advances the clock to
// exactly t (even if no event fired there). The Clock contract's
// monotonic-Now guarantee holds throughout: the clock only ever moves
// forward, first event by event and then in one jump to t. Events
// cancelled before their fire time never run, even if their record is
// still parked in the queue when their instant passes.
func (e *Engine) RunUntil(t float64) {
	for {
		next, ok := e.peek()
		if !ok || next > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// peek returns the fire time of the event Step would run next, or false
// when both lanes are empty. Cancelled heap tops are collected on the way.
func (e *Engine) peek() (float64, bool) {
	for len(e.queue) > 0 && e.queue[0].Ev.canceled {
		e.ncanceled--
		e.release(e.queue.Pop())
	}
	switch {
	case e.feedFirst():
		return e.feed.head, true
	case len(e.queue) > 0:
		return e.queue[0].At, true
	}
	return 0, false
}

// MaxQueueLen reports the high-water mark of QueueLen — the heap lane
// only, so a fed batch does not show — useful when sizing scalability
// experiments.
func (e *Engine) MaxQueueLen() int { return e.maxLen }

// SetPostStep installs a hook that runs after every fired event callback,
// while the clock still reads the event's fire time. It exists for
// auditing invariants between events (the conservation property tests);
// the hook must not schedule or cancel events. Pass nil to remove it.
func (e *Engine) SetPostStep(fn func()) { e.postStep = fn }

// Ticker fires a callback on a fixed virtual-time period until stopped.
// It is the driver-agnostic clock.Ticker: the building block for
// periodic behaviours — utilization sampling, health pings, safeguard
// monitor windows — on either clock implementation. Its contract is
// pinned to the Clock spec: the first fire comes one period after
// creation, re-arming happens after the callback returns (so a callback
// that stops its own ticker leaves nothing queued), and Stop cancels the
// armed event so a stopped ticker never holds the queue open.
type Ticker = clock.Ticker

// Every schedules fn to run every period seconds, starting one period
// from now. It panics on a non-positive period (that would loop the
// clock in place).
func (e *Engine) Every(period float64, fn func()) *Ticker {
	return clock.Every(e, period, fn)
}
