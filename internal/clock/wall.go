package clock

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"libra/internal/eventq"
)

// Source abstracts physical time for the wall Driver, so tests can run
// the driver deterministically against a mocked clock. A Source's time
// is monotonic seconds since an arbitrary epoch.
type Source interface {
	// Now returns the source's current time in seconds.
	Now() float64
	// WaitUntil blocks until source time reaches t, or until wake
	// delivers (an earlier event was scheduled, or the driver is
	// stopping). t may be +Inf, meaning "wait for a wake only". Mock
	// sources may instead jump their clock forward to t and return
	// immediately — that is what makes a Driver run deterministic.
	WaitUntil(t float64, wake <-chan struct{})
}

// realSource is the production Source: time.Now anchored at an epoch,
// time.Timer-backed waits.
type realSource struct {
	epoch time.Time
	yield func() // runtime.Gosched; the tests count the calls
}

// NewRealSource returns a Source backed by the machine's monotonic
// clock, with its epoch at the moment of the call.
func NewRealSource() Source { return &realSource{epoch: time.Now(), yield: runtime.Gosched} }

func (s *realSource) Now() float64 { return time.Since(s.epoch).Seconds() }

// spinMargin is how far before the deadline the timer path hands over
// to spin-waiting. Go timers wake 1–2 ms late on a busy single-core box
// (measured: a 20 µs timer wait costs ~1.9 ms wall), which an event
// loop firing every few microseconds cannot absorb — the serve
// throughput ceiling would be timer latency, not event cost: with the
// margin at zero every modelled hop of a live invocation fires late
// (server-side latency p50 2.52 → 3.78 ms). Spinning the last stretch
// costs at most spinMargin of one core per wait and only when the loop
// is otherwise idle.
const spinMargin = 2e-3

// yieldGap is how much source time the spin lets pass between two
// runtime.Gosched calls. The spin polls wake every iteration, so the gap
// delays nothing scheduled on the driver; what it trades is the two
// things a yield does to everybody else. A yield is a global-run-queue
// put, a wakep and a schedule; at one every eighth poll (1.7–1.9 M/s on
// the 2-vCPU recording host) the loop kept both scheduler threads busy
// handing itself over and starved the netpoller: a request sat 1.4–1.8 ms
// at the median (p90 3.0 ms) in its loopback socket before its handler
// started, more host time than the rest of the HTTP path together. With
// no yield at all the handler starts at once but a goroutine made
// runnable on the spinning thread waits for sysmon to preempt the loop
// (deliver → handler p50 309 µs, 12% of the serving rate lost). Measured
// between the two, client → handler p50 / deliver → handler p50:
//
//	every 8th poll   1 415–1 824 µs /   5 µs
//	20 µs gap          127–138 µs   /  32 µs   ← live-http overhead_ms 4.7 → 2.9–3.0
//	50 µs gap              —        /  65 µs      3.00–3.07
//	every 4096th         —          / 166 µs
//
// The second column is about 1.6 × the gap, the first is flat from 20 µs
// up, so 20 µs is the knee. `go test -bench IngressWake ./internal/serve`
// shows the first column on one connection (DESIGN.md §8c).
const yieldGap = 20e-6

func (s *realSource) WaitUntil(t float64, wake <-chan struct{}) {
	if math.IsInf(t, 1) {
		<-wake
		return
	}
	if d := t - s.Now() - spinMargin; d > 0 {
		tm := time.NewTimer(time.Duration(d * float64(time.Second)))
		select {
		case <-tm.C:
		case <-wake:
			tm.Stop()
			return // an earlier event arrived; let the loop re-examine
		}
		tm.Stop()
	}
	spin(t, wake, s.Now, s.yield)
}

// spin polls now until it reaches t or wake delivers, and calls yield
// once per yieldGap of the time now reports: by the clock, not by the
// poll count, so the yield rate does not follow how fast this host polls.
func spin(t float64, wake <-chan struct{}, now func() float64, yield func()) {
	cur := now()
	yieldAt := cur + yieldGap
	for cur < t {
		select {
		case <-wake:
			return
		default:
		}
		if cur >= yieldAt {
			yield()
			yieldAt = now() + yieldGap // from the return: what ran meanwhile was not spinning
		}
		cur = now()
	}
}

// ManualSource is a mocked Source for deterministic driver runs: Now
// stands still until a WaitUntil jumps it to the requested instant. A
// Driver over a ManualSource fires events in exactly the (time, seq)
// order the sim engine would — the equivalence tests pin this.
type ManualSource struct {
	mu  sync.Mutex
	now float64
}

// NewManualSource returns a ManualSource at time zero.
func NewManualSource() *ManualSource { return &ManualSource{} }

// Now returns the mocked time.
func (s *ManualSource) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves the mocked clock forward by d seconds (no-op for d ≤ 0).
func (s *ManualSource) Advance(d float64) {
	s.mu.Lock()
	if d > 0 {
		s.now += d
	}
	s.mu.Unlock()
}

// WaitUntil jumps the mocked clock to t and returns immediately. An
// infinite t blocks on wake, mirroring the real source's idle wait.
func (s *ManualSource) WaitUntil(t float64, wake <-chan struct{}) {
	if math.IsInf(t, 1) {
		<-wake
		return
	}
	s.mu.Lock()
	if t > s.now {
		s.now = t
	}
	s.mu.Unlock()
}

// wallEvent is a scheduled callback record owned by the Driver and
// recycled after it fires, exactly like the sim engine's event records.
// Its order key (at, seq) lives in the heap slot that points at it; at is
// repeated here for Handle.Time. 24 bytes: the size class the slot's key
// is paid from (TestWallEventStaysInItsSizeClass).
type wallEvent struct {
	fn       func()
	at       float64
	gen      uint32
	canceled bool
}

// Gen implements clock.Record.
func (ev *wallEvent) Gen() uint32 { return ev.gen }

// EventCanceled implements clock.Record.
func (ev *wallEvent) EventCanceled() bool { return ev.canceled }

// EventTime implements clock.Record.
func (ev *wallEvent) EventTime() float64 { return ev.at }

// wallCompactMin mirrors the sim engine's lazy-cancel compaction floor.
const wallCompactMin = 64

// unpinned is what Driver.pin holds while no callback runs: the bits of a
// NaN, which no fire time has (At and Schedule refuse one).
const unpinned = math.MaxUint64

// Driver is the wall-clock Clock implementation: the same (time, seq)
// event queue as the sim engine — eventq's key-inline 4-ary heap — driven
// by physical timers instead of a virtual clock. Unlike the engine it is
// goroutine-safe — Schedule, At, Cancel and Now may be called from any
// goroutine (HTTP handlers submit work this way) — but callbacks are
// serialized on the single goroutine running Run or Serve, preserving the
// Clock contract the lock-free platform code depends on.
//
// Construct with NewDriver (mockable Source) or NewWallDriver (machine
// clock).
type Driver struct {
	mu  sync.Mutex
	src Source
	now float64 // high-water mark of observed/fired time
	// pin is the float bits of the running callback's fire time (== now),
	// unpinned outside callbacks. step writes it under mu; Now reads it
	// without, which is what a platform callback's dozen clock reads cost.
	pin       atomic.Uint64
	seq       uint64
	queue     eventq.Heap[*wallEvent]
	ncanceled int
	free      []*wallEvent
	fired     uint64
	stopped   bool
	wake      chan struct{}
}

// NewDriver returns a Driver over the given time source.
func NewDriver(src Source) *Driver {
	d := &Driver{src: src, wake: make(chan struct{}, 1)}
	d.pin.Store(unpinned)
	return d
}

// NewWallDriver returns a Driver over the machine's monotonic clock,
// with time zero at the moment of the call.
func NewWallDriver() *Driver { return NewDriver(NewRealSource()) }

// nudge wakes the run loop without blocking; a single pending token is
// enough — the loop re-examines the queue head after every wake.
func (d *Driver) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Now returns the driver's current time in seconds since its epoch. It
// is monotonically non-decreasing even if the source briefly reads
// behind a fired event's timestamp (the loop may slip past due events).
//
// While a callback runs, time is pinned to the callback's fire time,
// exactly like the sim engine's Now, for every goroutine that asks. That
// is both contract-compliant (Now during a callback must be ≥ the fire
// time; the engine reports it exactly) and the difference between one
// source read per event and one per Now call — platform callbacks read
// the clock a dozen times per event, and at hundreds of thousands of
// events per second the nanotime calls alone were ~15% of the serve
// loop's CPU, and the mutex around the pinned read another 10%.
func (d *Driver) Now() float64 {
	if b := d.pin.Load(); b != unpinned {
		return math.Float64frombits(b)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nowLocked()
}

// inCallback reports whether a callback is running. Caller holds d.mu.
func (d *Driver) inCallback() bool { return d.pin.Load() != unpinned }

// nowLocked is Now for callers that hold d.mu: the pinned time during a
// callback, otherwise a fresh source read folded into the high-water mark.
func (d *Driver) nowLocked() float64 {
	if d.inCallback() {
		return d.now
	}
	if t := d.src.Now(); t > d.now {
		d.now = t
	}
	return d.now
}

// Pending returns the number of live events still queued (cancelled
// events lazily parked in the queue are not counted). The serve smoke
// check reads it after shutdown to prove the queue drained.
func (d *Driver) Pending() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue) - d.ncanceled
}

// Fired returns how many events have executed so far.
func (d *Driver) Fired() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

func (d *Driver) alloc() *wallEvent {
	if n := len(d.free); n > 0 {
		ev := d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
		return ev
	}
	return &wallEvent{}
}

func (d *Driver) release(ev *wallEvent) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	d.free = append(d.free, ev)
}

// Schedule queues fn to run after delay seconds. Safe from any
// goroutine; fn itself always runs on the driver's loop goroutine.
func (d *Driver) Schedule(delay float64, fn func()) Handle {
	if math.IsNaN(delay) {
		panic("clock: scheduling event at NaN time")
	}
	if delay < 0 {
		delay = 0
	}
	d.mu.Lock()
	h := d.atLocked(d.nowLocked()+delay, fn)
	inCB := d.inCallback()
	d.mu.Unlock()
	if !inCB { // the loop schedules most events from callbacks; it is already awake
		d.nudge()
	}
	return h
}

// At queues fn to run at absolute driver time t. Wall time cannot be
// replayed, so unlike the sim engine a past t clamps to "immediately"
// rather than panicking — a loadgen running behind schedule catches up
// by firing back-to-back.
func (d *Driver) At(t float64, fn func()) Handle {
	if math.IsNaN(t) {
		panic("clock: scheduling event at NaN time")
	}
	d.mu.Lock()
	if now := d.nowLocked(); t < now {
		t = now
	}
	h := d.atLocked(t, fn)
	inCB := d.inCallback()
	d.mu.Unlock()
	if !inCB {
		d.nudge()
	}
	return h
}

func (d *Driver) atLocked(t float64, fn func()) Handle {
	ev := d.alloc()
	ev.at, ev.fn = t, fn
	d.queue.Push(t, d.seq, ev)
	d.seq++
	return NewHandle(ev, ev.gen)
}

// Submit runs fn on the driver's loop goroutine as soon as possible.
// It is how external goroutines (HTTP handlers, signal handlers) mutate
// platform state without racing the event loop.
func (d *Driver) Submit(fn func()) { d.Schedule(0, fn) }

// Cancel marks the handled event so it will not fire. Same lazy-delete
// discipline as the sim engine: O(1), collected at the queue top or by
// compaction once dead records pile up.
func (d *Driver) Cancel(h Handle) {
	ev, ok := h.Impl().(*wallEvent)
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if ev.gen != h.Gen() || ev.canceled { // stale or already cancelled
		return
	}
	// A live handle means the record is still in the heap: it is released,
	// and every handle to it killed, before its callback runs.
	ev.canceled = true
	d.ncanceled++
	if d.ncanceled > wallCompactMin && d.ncanceled*2 > len(d.queue) {
		d.compact()
	}
}

// compact drops every cancelled record from the queue in one pass and
// re-establishes the heap order; (at, seq) is a strict total order, so
// the live events fire as they would have.
func (d *Driver) compact() {
	live := d.queue[:0]
	for _, s := range d.queue {
		if s.Ev.canceled {
			d.release(s.Ev)
		} else {
			live = append(live, s)
		}
	}
	clear(d.queue[len(live):])
	live.Init()
	d.queue = live
	d.ncanceled = 0
}

// step runs the next due event if there is one, under one hold of d.mu.
// It returns (fired, nextAt): fired is whether a callback ran; if none
// did, nextAt is the time to wait for — the head event's, +Inf while a
// serving loop's queue is empty — or NaN when the loop is to return: the
// queue drained (Run) or Stop was called (Serve). A loop that returns has
// always been through here since its last callback, so it leaves Now
// unpinned.
func (d *Driver) step(serving bool) (bool, float64) {
	d.mu.Lock()
	d.pin.Store(unpinned) // the previous callback (if any) has returned
	if serving && d.stopped {
		d.mu.Unlock()
		return false, math.NaN()
	}
	for len(d.queue) > 0 && d.queue[0].Ev.canceled { // collect what surfaced
		d.release(d.queue.Pop())
		d.ncanceled--
	}
	if len(d.queue) == 0 {
		d.mu.Unlock()
		if serving {
			return false, math.Inf(1)
		}
		return false, math.NaN()
	}
	if at := d.queue[0].At; at > d.nowLocked() {
		d.mu.Unlock()
		return false, at
	}
	ev := d.queue.Pop()
	d.pin.Store(math.Float64bits(d.now)) // ≥ ev.at: the loop may have slipped past it
	d.fired++
	fn := ev.fn
	// Recycle before running the callback, like the sim engine: any
	// handle to this event is dead the instant it fires, and the
	// callback's own Schedule calls may reuse the record immediately.
	d.release(ev)
	d.mu.Unlock()
	fn()
	return true, 0
}

// loop steps until step says to return, waiting out the gaps on the time
// source.
func (d *Driver) loop(serving bool) {
	for {
		fired, nextAt := d.step(serving)
		if fired {
			continue
		}
		if math.IsNaN(nextAt) {
			return
		}
		d.src.WaitUntil(nextAt, d.wake)
	}
}

// Run executes events until the queue drains, waiting out the gaps on
// the time source. Under a ManualSource the waits jump time forward
// instead, so Run is a deterministic synchronous replay — the same
// contract as sim.Engine.Run, which is what lets Platform.Run drive
// either implementation.
func (d *Driver) Run() { d.loop(false) }

// Serve executes events until ctx is cancelled or Stop is called,
// idling (not returning) while the queue is empty — the live-serving
// loop. Pending events at stop time stay queued; callers that need a
// drained queue check Pending after Serve returns.
func (d *Driver) Serve(ctx context.Context) {
	if ctx != nil {
		defer context.AfterFunc(ctx, d.Stop)()
	}
	d.loop(true)
}

// Stop makes Serve return after the in-flight callback (if any)
// completes. Idempotent and safe from any goroutine, including a
// callback on the loop itself.
func (d *Driver) Stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
	d.nudge()
}
