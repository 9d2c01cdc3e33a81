// Package clock defines the time abstraction the whole platform runs
// on: a Clock schedules callbacks into the future and cancels them, and
// nothing above this interface knows whether time is virtual or real.
// Two drivers satisfy it — the deterministic discrete-event engine
// (internal/sim) that replays experiments in virtual time, and the
// goroutine-safe wall-clock Driver in this package that runs the same
// platform code against physical timers for live serving.
//
// The Clock contract both implementations are pinned to:
//
//   - Now is monotonically non-decreasing. During a callback it reports
//     a time ≥ the callback's scheduled fire time (the sim reports it
//     exactly; the wall driver may have slipped past it).
//   - Schedule(delay, fn) runs fn once, no earlier than Now()+delay.
//     Negative delays clamp to zero. At(t, fn) is the absolute-time
//     form; scheduling into the past is a caller bug.
//   - Two callbacks due at the same instant fire in Schedule order
//     (FIFO), and a callback never runs concurrently with another —
//     every Clock serializes its callbacks on one goroutine, which is
//     what lets the platform, cluster and scheduler stay lock-free.
//   - Cancel(h) guarantees the handled callback will not run. It is a
//     no-op on the zero Handle, an already-fired or already-cancelled
//     event, and a stale handle to a recycled record (generation
//     check) — callers routinely cancel events that may have fired.
//   - Feed (optional, see Feeder) hands the clock a time-sorted batch in
//     one call and is observably identical to n consecutive At calls
//     made at the instant of the Feed call: entry i holds sequence
//     number seq₀+i from a block [seq₀, seq₀+n) reserved at call time,
//     so a same-instant tie against anything scheduled before the Feed
//     (lower sequence) or after it (higher) resolves exactly as the FIFO
//     rule above says it would have for the n At calls.
package clock

// Record is the implementation-owned state behind a Handle. Drivers
// recycle records after an event fires, bumping the generation so every
// outstanding Handle to the old occupant goes stale.
type Record interface {
	// Gen returns the record's current generation. A Handle is live
	// while its snapshot of the generation still matches.
	Gen() uint32
	// EventCanceled reports whether the record's current occupant has
	// been cancelled but not yet collected.
	EventCanceled() bool
	// EventTime returns the occupant's scheduled fire time.
	EventTime() float64
}

// Handle identifies a scheduled callback for cancellation. The zero
// Handle is inert: Cancel on it is a no-op and Live reports false. A
// handle expires as soon as its event fires or its cancellation is
// collected — the underlying record may then be recycled, and the stale
// handle keeps refusing to act on the new occupant (generation check).
type Handle struct {
	rec Record
	gen uint32
}

// NewHandle builds a Handle for a driver's event record at its current
// generation. Only Clock implementations call this.
func NewHandle(rec Record, gen uint32) Handle { return Handle{rec: rec, gen: gen} }

// Impl returns the driver-owned record behind the handle (nil for the
// zero Handle). Drivers type-assert it back to their concrete record.
func (h Handle) Impl() Record { return h.rec }

// Gen returns the generation snapshot taken when the handle was issued.
func (h Handle) Gen() uint32 { return h.gen }

// Live reports whether the handle still refers to a queued event, i.e.
// the event has neither fired nor been dropped after cancellation. A
// cancelled event that is still lazily parked in a driver's queue counts
// as live in the bookkeeping sense; use Canceled to distinguish.
func (h Handle) Live() bool { return h.rec != nil && h.rec.Gen() == h.gen }

// Canceled reports whether Cancel was called on the event the handle
// refers to. Once the event fires or its record is recycled this
// returns false, matching the zero Handle.
func (h Handle) Canceled() bool { return h.Live() && h.rec.EventCanceled() }

// Time returns the scheduled fire time of the event, or NaN if the
// handle no longer refers to a queued event.
func (h Handle) Time() float64 {
	if !h.Live() {
		return nan()
	}
	return h.rec.EventTime()
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// Clock is the scheduling substrate shared by the deterministic sim
// engine and the live wall-clock driver. See the package comment for the
// contract both implementations obey.
type Clock interface {
	// Now returns the current time in seconds (virtual or wall-relative,
	// depending on the driver). Monotonically non-decreasing.
	Now() float64
	// Schedule queues fn to run once after delay seconds. Negative
	// delays clamp to zero (fn fires at the current instant, after all
	// callbacks already queued for it).
	Schedule(delay float64, fn func()) Handle
	// At queues fn to run at absolute time t. Scheduling into the past
	// panics in the sim (a causality bug) and clamps to "immediately" in
	// the wall driver (wall time cannot be replayed).
	At(t float64, fn func()) Handle
	// Cancel guarantees the handled callback will not run. No-op on the
	// zero Handle, fired events, and stale (recycled) handles.
	Cancel(h Handle)
}

// Runner is satisfied by clocks that can run their queue to exhaustion
// synchronously — the sim engine, and the wall Driver under a manual
// time source. Platform.Run needs one; the live serving path does not.
type Runner interface {
	Clock
	// Run executes events until the queue drains.
	Run()
}

// Feeder is implemented by clocks that can take a time-sorted batch of
// callbacks without a queue entry per callback — the serial sim engine,
// which keeps the batch as a second lane beside its event heap. It is
// optional: the wall Driver and the sharded engine do not implement it,
// and live serving never calls it. Callers go through the Feed helper,
// which falls back to per-entry At calls.
type Feeder interface {
	Clock
	// Feed queues fn(i) to run at time at(i) for every 0 ≤ i < n, under
	// the package comment's equivalence with n consecutive At calls.
	// Entries cannot be cancelled. The caller guarantees that at is
	// non-decreasing and never NaN, that at(0) ≥ Now(), and that no
	// earlier feed still has unfired entries; a violation is a caller
	// bug and panics, as At does for a time in the past. at and fn are
	// called during the run, so what they read must stay unchanged until
	// the last entry has fired.
	Feed(n int, at func(i int) float64, fn func(i int))
}

// Feed schedules fn(i) at time at(i) for every 0 ≤ i < n, in index
// order. When c is a Feeder and the batch meets Feeder.Feed's ordering
// preconditions it goes to c.Feed; otherwise — any other clock, or a
// batch that is unsorted, holds a NaN or starts in the past — it is n
// At calls, which is what c.Feed is defined to be equivalent to and
// which treats such a batch however c.At does.
func Feed(c Clock, n int, at func(i int) float64, fn func(i int)) {
	if f, ok := c.(Feeder); ok && feedable(c.Now(), n, at) {
		f.Feed(n, at, fn)
		return
	}
	for i := 0; i < n; i++ {
		c.At(at(i), func() { fn(i) })
	}
}

// feedable reports whether at(0..n) is non-decreasing, free of NaN and
// not before now.
func feedable(now float64, n int, at func(i int) float64) bool {
	prev := now
	for i := 0; i < n; i++ {
		t := at(i)
		if !(t >= prev) { // also catches NaN
			return false
		}
		prev = t
	}
	return true
}

// Lane is one parallel lane of a sharded clock: a Clock view whose
// events are tagged with the lane and may execute concurrently with
// other lanes' events due at the same instant. Everything a lane
// callback does through its own Lane — Schedule, At, Cancel, Emit,
// Global — is buffered and applied at the merge barrier in the exact
// order a serial clock would have applied it, which is what keeps a
// sharded run bit-identical to a serial one.
//
// The single-owner contract: an event scheduled through a Lane (or its
// Global proxy) may only be cancelled or queried from that same lane's
// callbacks, or from global-lane callbacks. Cross-lane cancellation is
// a data race by construction and the sharded engine panics on the
// detectable cases.
type Lane interface {
	Clock
	// Emit queues fn to run on the clock's merge goroutine at the next
	// barrier, serialized with every other lane's emissions in
	// deterministic slot order (the order a serial engine would have run
	// the emitting callbacks). fn must capture the values it needs at
	// call time — lane state may advance before the barrier — and must
	// not schedule or cancel events. Outside a parallel batch, Emit runs
	// fn inline.
	Emit(fn func())
	// Global returns a Clock that schedules onto the global lane —
	// usable from this lane's callbacks for events that must serialize
	// with every lane (interaction points).
	Global() Clock
}

// Sharder is implemented by clocks that partition events into parallel
// lanes with a deterministic merge barrier — the sharded sim engine.
// Code that can split per-entity periodic work (the platform's health
// pings) type-asserts its Clock to Sharder and schedules each
// partition on its own Lane; when the assertion fails it falls back to
// the single-lane path unchanged.
type Sharder interface {
	Clock
	// Lanes returns the number of parallel lanes (≥ 1).
	Lanes() int
	// Lane returns lane i's scheduling view, 0 ≤ i < Lanes().
	Lane(i int) Lane
}

// Ticker fires a callback on a fixed period until stopped. It is the
// driver-agnostic building block for periodic behaviours: utilization
// sampling, health pings, safeguard monitor windows, load generation.
//
// Fires are scheduled at absolute multiples of the period, not relative
// to when the previous callback ran. Under the sim engine the two are
// identical (a callback always observes Now() == its fire time), but
// under the wall driver a loaded event loop pops ticks late — and
// rescheduling relative to the late pop would compound every delay into
// a permanently slower tick rate. Absolute scheduling makes late ticks
// fire back-to-back until they catch up, so the long-run rate is exact:
// an open-loop load generator offers the configured load even while the
// loop is saturated, instead of silently shedding it.
type Ticker struct {
	c       Clock
	period  float64
	next    float64
	fn      func()
	fire    func()
	ev      Handle
	stopped bool
}

// Every schedules fn to run every period seconds on c, starting one
// period from now. It panics on a non-positive period (that would loop
// the clock in place).
func Every(c Clock, period float64, fn func()) *Ticker {
	if period <= 0 {
		panic("clock: Every period must be positive")
	}
	t := &Ticker{c: c, period: period, next: c.Now() + period, fn: fn}
	// Bind the re-arming callback once: a ticker fires forever, and
	// allocating a fresh closure per fire shows up as steady-state churn
	// on every periodic path (sampling, pings, load generation).
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.next += t.period
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.c.At(t.next, t.fire)
}

// Stop halts the ticker and cancels its pending fire, so a stopped
// ticker leaves nothing live in the clock's queue: a draining run
// terminates as soon as the real work finishes instead of stepping one
// more empty period. Stop is idempotent and safe from within the
// ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.c.Cancel(t.ev)
	t.ev = Handle{}
}
