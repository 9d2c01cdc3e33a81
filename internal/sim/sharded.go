// Sharded is the lane-parallel variant of the discrete-event engine.
//
// The serial Engine executes one totally-ordered (at, seq) stream. The
// sharded engine keeps that total order as its semantic contract but
// partitions the *storage and execution* of events into lanes: lane 0
// is the global lane (interaction points — placement, loan grant and
// revoke, Rebalance, autoscale ticks — anything that may touch state
// owned by more than one lane), and lanes 1..N each own a disjoint
// slice of the cluster (per-node periodic work). Global events execute
// one at a time in exact (at, seq) order, just like the serial engine.
// Lane events due at the same instant that are *consecutive* in the
// merged order form a batch, and a batch's callbacks run concurrently,
// one worker goroutine per lane.
//
// What makes the parallel run bit-identical to the serial one is the
// merge barrier. During a batch a callback cannot touch the engine
// directly: every Schedule, At, Cancel and Emit issued through its
// Lane view is buffered against the callback's slot (its position in
// the batch's (at, seq) order). When all lanes finish, the engine
// drains the buffers in slot order — which is exactly the order a
// serial engine would have executed the callbacks — assigning sequence
// numbers from the same monotone counter a serial run would have used.
// Newly scheduled events therefore sort identically, emissions (trace
// writes, index updates) apply in identical order, and cancellations
// account identically. The only requirement on the platform is the
// batch-purity contract: a lane event's callback may only read and
// write state owned by its lane, plus whatever it routes through the
// ordered Emit.
//
// The contract is enforced where violations are detectable: using the
// Sharded clock itself (rather than a Lane view) from inside a lane
// callback panics, as does using a Lane view from another lane's
// callback. Cross-lane *scheduling* is legal and deterministic — a
// lane callback schedules onto the global lane through Lane.Global —
// but cross-lane cancellation is not (the owner's lane or the global
// lane must do it); undetected violations are data races by
// construction and the differential tests run under -race.
package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"libra/internal/clock"
	"libra/internal/eventq"
)

// laneHeap is one lane's event storage: a private (at, seq) heap with
// the same lazy-cancel + compaction discipline as the serial engine,
// and a private free list so batch-time allocation never contends.
type laneHeap struct {
	q         eventHeap
	ncanceled int
	free      []*Event
	maxLen    int
}

type slotOpKind uint8

const (
	opSchedule slotOpKind = iota
	opCancel
	opEmit
)

// slotOp is one buffered engine operation issued by a batch callback,
// replayed at the merge barrier in call order.
type slotOp struct {
	kind slotOpKind
	ev   *Event // schedule: the pre-allocated record; cancel: the target
	fn   func() // emit closure
}

// batchSlot is one event of the current batch: its position in the
// slice is its slot (the batch's (at, seq) order), and ops accumulates
// everything its callback asked the engine to do.
type batchSlot struct {
	ev  *Event
	ran bool
	ops []slotOp
}

// Sharded is the lane-parallel discrete-event engine. The zero value
// is not usable; construct with NewSharded. Like the serial Engine it
// satisfies clock.Runner; unlike it, it also satisfies clock.Sharder,
// which is how the platform discovers the per-lane scheduling views.
type Sharded struct {
	now   float64
	seq   uint64
	fired uint64

	// heaps[0] is the global lane; heaps[1..Lanes()] the parallel lanes.
	heaps []laneHeap
	views []laneView

	// Batch state. batchActive flips on the engine goroutine before
	// workers are released and off after the barrier; the dispatch
	// channel send and wg.Wait provide the happens-before edges that
	// make worker reads of it (and of now) race-free.
	batchActive bool
	curSlot     []*batchSlot // per heap index: slot whose callback is running
	slots       []*batchSlot // pooled batch slots
	nslots      int
	perLane     [][]*batchSlot

	workers  []chan []*batchSlot
	wg       sync.WaitGroup
	panicMu  sync.Mutex
	panicked any

	// Barrier diagnostics (BatchStats): pure observability counters —
	// they never influence event order, so they cannot perturb replay
	// determinism. laneWorkNanos is atomic because workers add to it.
	batches           uint64
	batchSlots        uint64
	batchLaneSum      uint64
	singleLaneBatches uint64
	laneWorkNanos     int64
	barrierWaitNanos  int64
	mergeNanos        int64
}

// BatchStats is a snapshot of the engine's merge-barrier diagnostics,
// the numbers that make a lane-scaling curve interpretable: how many
// batches formed, how wide they were (lanes actually running
// concurrently), how often a batch collapsed to the single-lane inline
// fast path, and where the wall time went — executing lane callbacks
// versus the engine goroutine blocking at the barrier versus draining
// the merge buffers.
type BatchStats struct {
	// Batches is the number of lane batches executed.
	Batches uint64
	// Slots is the total number of lane events executed across batches.
	Slots uint64
	// LaneSum is Σ over batches of the number of distinct lanes with at
	// least one slot; LaneSum/Batches is the mean batch width.
	LaneSum uint64
	// SingleLane counts batches that ran on the inline fast path because
	// exactly one lane had work (or the engine has one lane).
	SingleLane uint64
	// LaneWork is wall time spent executing lane callbacks (summed
	// across workers, so it can exceed elapsed time on multi-CPU hosts).
	LaneWork time.Duration
	// BarrierWait is wall time the engine goroutine spent blocked
	// between dispatching a parallel batch and the last worker finishing.
	BarrierWait time.Duration
	// Merge is wall time spent draining the buffered slot-ops at the
	// barrier (sequence assignment, cancel bookkeeping, emissions).
	Merge time.Duration
}

// BatchStats returns the accumulated merge-barrier diagnostics. Safe to
// call between runs; calling it while Run executes on another goroutine
// would race with the counters.
func (s *Sharded) BatchStats() BatchStats {
	return BatchStats{
		Batches:     s.batches,
		Slots:       s.batchSlots,
		LaneSum:     s.batchLaneSum,
		SingleLane:  s.singleLaneBatches,
		LaneWork:    time.Duration(atomic.LoadInt64(&s.laneWorkNanos)),
		BarrierWait: time.Duration(s.barrierWaitNanos),
		Merge:       time.Duration(s.mergeNanos),
	}
}

var (
	_ clock.Runner  = (*Sharded)(nil)
	_ clock.Sharder = (*Sharded)(nil)
	_ clock.Lane    = (*laneView)(nil)
)

// NewSharded returns a sharded engine with lanes parallel lanes and the
// clock at zero. NewSharded(1) exercises the full batch/merge machinery
// on a single lane — useful for equivalence testing on any hardware —
// while lanes > 1 runs same-instant batches on one goroutine per lane.
func NewSharded(lanes int) *Sharded {
	if lanes < 1 {
		panic("sim: NewSharded needs at least one lane")
	}
	s := &Sharded{
		heaps:   make([]laneHeap, lanes+1),
		curSlot: make([]*batchSlot, lanes+1),
		perLane: make([][]*batchSlot, lanes+1),
		views:   make([]laneView, lanes),
	}
	for i := range s.views {
		s.views[i] = laneView{s: s, lane: int32(i + 1)}
		s.views[i].g.v = &s.views[i]
	}
	return s
}

// Lanes implements clock.Sharder.
func (s *Sharded) Lanes() int { return len(s.views) }

// Lane implements clock.Sharder: lane i's scheduling view, 0 ≤ i < Lanes().
func (s *Sharded) Lane(i int) clock.Lane { return &s.views[i] }

// Now returns the current virtual time. During a batch every lane
// callback observes the batch's single shared instant.
func (s *Sharded) Now() float64 { return s.now }

// Fired returns how many events have executed so far.
func (s *Sharded) Fired() uint64 { return s.fired }

// Pending returns the number of live events queued across all lanes.
func (s *Sharded) Pending() int {
	n := 0
	for i := range s.heaps {
		n += len(s.heaps[i].q) - s.heaps[i].ncanceled
	}
	return n
}

// Schedule queues fn on the global lane after delay seconds. Calling it
// from inside a lane callback panics — lane callbacks must go through
// their Lane view so the operation lands in the merge buffer.
func (s *Sharded) Schedule(delay float64, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now+delay, fn)
}

// At queues fn on the global lane at absolute time t. Same past/NaN
// panics as the serial engine; same lane-callback restriction as
// Schedule.
func (s *Sharded) At(t float64, fn func()) Handle {
	if s.batchActive {
		panic("sim: sharded clock used directly inside a lane callback; schedule through the Lane view or Lane.Global()")
	}
	return s.push(0, t, fn)
}

// push is the engine-goroutine scheduling path: immediate sequence
// assignment from the shared monotone counter, exactly as serial.
func (s *Sharded) push(lane int32, t float64, fn func()) Handle {
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%g, now=%g)", t, s.now))
	}
	ev := s.alloc(int(lane))
	ev.at, ev.fn, ev.lane = t, fn, lane
	h := &s.heaps[lane]
	h.q.Push(t, s.seq, ev)
	s.seq++
	if len(h.q) > h.maxLen {
		h.maxLen = len(h.q)
	}
	return clock.NewHandle(ev, ev.gen)
}

// Cancel marks the handled event so it will not fire, with the serial
// engine's exact no-op semantics. Lane callbacks must cancel through
// their Lane view.
func (s *Sharded) Cancel(h Handle) {
	if s.batchActive {
		panic("sim: sharded clock used directly inside a lane callback; cancel through the owning Lane view")
	}
	ev, ok := h.Impl().(*Event)
	if !ok || ev.gen != h.Gen() || ev.canceled {
		return
	}
	s.cancelDirect(ev)
}

// cancelDirect is the engine-goroutine cancel path: lazy mark plus the
// per-lane compaction the serial engine applies globally.
func (s *Sharded) cancelDirect(ev *Event) {
	ev.canceled = true
	s.countCanceled(ev)
}

// countCanceled is the lazy-deletion bookkeeping for a record just marked
// cancelled. A member of the running batch has left its heap already and
// is released at the barrier without ever counting.
func (s *Sharded) countCanceled(ev *Event) {
	if ev.inBatch {
		return
	}
	h := &s.heaps[ev.lane]
	h.ncanceled++
	if h.ncanceled > compactMin && h.ncanceled*2 > len(h.q) {
		h.q = dropCanceled(h.q, s.release)
		h.ncanceled = 0
	}
}

// Every schedules fn on the global lane every period seconds.
func (s *Sharded) Every(period float64, fn func()) *Ticker {
	return clock.Every(s, period, fn)
}

func (s *Sharded) alloc(fromLane int) *Event {
	h := &s.heaps[fromLane]
	if n := len(h.free); n > 0 {
		ev := h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		return ev
	}
	return &Event{}
}

// release recycles a record into its owning lane's free list, bumping
// the generation so outstanding handles go stale. Engine goroutine only.
func (s *Sharded) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.canceled = false
	ev.inBatch = false
	h := &s.heaps[ev.lane]
	h.free = append(h.free, ev)
}

// peekHeap returns lane li's next live slot without popping it,
// collecting cancelled records that surface at the top.
func (s *Sharded) peekHeap(li int) *eventq.Slot[*Event] {
	h := &s.heaps[li]
	for len(h.q) > 0 {
		if h.q[0].Ev.canceled {
			h.ncanceled--
			s.release(h.q.Pop())
			continue
		}
		return &h.q[0]
	}
	return nil
}

// peekMin returns the globally next event — the minimum (at, seq)
// across every lane head. Sequence numbers come from one counter, so
// the comparison is a strict total order.
func (s *Sharded) peekMin() *Event {
	var best *eventq.Slot[*Event]
	for li := range s.heaps {
		top := s.peekHeap(li)
		if top == nil {
			continue
		}
		if best == nil || top.At < best.At || (top.At == best.At && top.Seq < best.Seq) {
			best = top
		}
	}
	if best == nil {
		return nil
	}
	return best.Ev
}

// Run executes events until every lane drains. Global events run
// serially in merged order; maximal same-instant runs of lane events
// execute as parallel batches bounded by merge barriers.
func (s *Sharded) Run() {
	if len(s.views) > 1 {
		s.startWorkers()
		defer s.stopWorkers()
	}
	for {
		ev := s.peekMin()
		if ev == nil {
			return
		}
		s.heaps[ev.lane].q.Pop()
		s.now = ev.at
		if ev.lane == 0 {
			s.fired++
			fn := ev.fn
			// Recycle before running, as serial: handles die at fire time
			// and the callback may reuse the record immediately.
			s.release(ev)
			fn()
			continue
		}
		s.runBatch(ev)
	}
}

// runBatch collects the maximal run of consecutive lane events at
// first's instant, executes it (parallel across lanes, serial within a
// lane), then drains the merge buffers. The batch stops at the first
// global event even mid-instant: global events may mutate any lane's
// state, so they never overlap lane execution.
func (s *Sharded) runBatch(first *Event) {
	t := first.at
	s.nslots = 0
	s.addSlot(first)
	for {
		ev := s.peekMin()
		if ev == nil || ev.at != t || ev.lane == 0 {
			break
		}
		s.heaps[ev.lane].q.Pop()
		s.addSlot(ev)
	}
	slots := s.slots[:s.nslots]

	active := 0
	for li := range s.perLane {
		s.perLane[li] = s.perLane[li][:0]
	}
	for _, sl := range slots {
		li := sl.ev.lane
		if len(s.perLane[li]) == 0 {
			active++
		}
		s.perLane[li] = append(s.perLane[li], sl)
	}

	s.batches++
	s.batchSlots += uint64(len(slots))
	s.batchLaneSum += uint64(active)

	s.batchActive = true
	if active == 1 || len(s.views) == 1 {
		// One lane has work (or the engine is single-lane): skip the
		// goroutine handoff and run the slots on the engine goroutine.
		s.singleLaneBatches++
		t0 := time.Now()
		for _, sl := range slots {
			s.runSlot(sl)
		}
		s.laneWorkNanos += int64(time.Since(t0))
	} else {
		s.wg.Add(active)
		t0 := time.Now()
		for li := 1; li < len(s.heaps); li++ {
			if len(s.perLane[li]) > 0 {
				s.workers[li-1] <- s.perLane[li]
			}
		}
		s.wg.Wait()
		s.barrierWaitNanos += int64(time.Since(t0))
		if s.panicked != nil {
			p := s.panicked
			s.panicked = nil
			panic(p)
		}
	}
	s.batchActive = false
	t0 := time.Now()
	s.drainBatch(slots)
	s.mergeNanos += int64(time.Since(t0))
}

func (s *Sharded) addSlot(ev *Event) {
	if s.nslots == len(s.slots) {
		s.slots = append(s.slots, &batchSlot{})
	}
	sl := s.slots[s.nslots]
	ev.inBatch = true
	sl.ev = ev
	sl.ran = false
	sl.ops = sl.ops[:0]
	s.nslots++
}

// runSlot executes one batch event on its lane's goroutine. An event
// cancelled by an earlier same-lane slot is skipped, mirroring the
// serial engine's collect-on-pop.
func (s *Sharded) runSlot(sl *batchSlot) {
	ev := sl.ev
	if ev.canceled {
		return
	}
	s.curSlot[ev.lane] = sl
	sl.ran = true
	ev.fn()
	s.curSlot[ev.lane] = nil
}

// drainBatch is the merge barrier's second half: replay every buffered
// operation in slot order — the order a serial engine would have run
// the callbacks — so sequence assignment, cancellation accounting and
// emissions are bit-identical to a serial run.
func (s *Sharded) drainBatch(slots []*batchSlot) {
	for _, sl := range slots {
		if sl.ran {
			s.fired++
		}
		for i := range sl.ops {
			op := &sl.ops[i]
			switch op.kind {
			case opSchedule:
				ev := op.ev
				h := &s.heaps[ev.lane]
				h.q.Push(ev.at, s.seq, ev)
				s.seq++
				if len(h.q) > h.maxLen {
					h.maxLen = len(h.q)
				}
			case opCancel:
				// The mark itself was applied at call time (later slots of
				// the owning lane must observe it); here only the lazy-
				// deletion bookkeeping runs.
				s.countCanceled(op.ev)
			case opEmit:
				op.fn()
			}
			op.ev, op.fn = nil, nil
		}
		sl.ops = sl.ops[:0]
		s.release(sl.ev)
		sl.ev = nil
	}
}

func (s *Sharded) startWorkers() {
	s.workers = make([]chan []*batchSlot, len(s.views))
	for i := range s.workers {
		ch := make(chan []*batchSlot)
		s.workers[i] = ch
		go func() {
			for slots := range ch {
				s.runLaneSlots(slots)
			}
		}()
	}
}

// runLaneSlots is one worker's share of a batch. A panicking callback
// is captured and re-thrown on the engine goroutine after the barrier,
// so contract-violation panics surface with deterministic timing.
func (s *Sharded) runLaneSlots(slots []*batchSlot) {
	t0 := time.Now()
	defer s.wg.Done()
	defer func() {
		atomic.AddInt64(&s.laneWorkNanos, int64(time.Since(t0)))
		if r := recover(); r != nil {
			s.panicMu.Lock()
			if s.panicked == nil {
				s.panicked = r
			}
			s.panicMu.Unlock()
		}
	}()
	for _, sl := range slots {
		s.runSlot(sl)
	}
}

func (s *Sharded) stopWorkers() {
	for _, ch := range s.workers {
		close(ch)
	}
	s.workers = nil
}

// laneView is one lane's clock.Lane. Its methods are legal from the
// engine goroutine (global callbacks, setup) and from this lane's own
// batch callbacks; in a batch every operation is buffered against the
// running slot for the merge barrier.
type laneView struct {
	s    *Sharded
	lane int32
	g    globalVia
}

func (v *laneView) Now() float64 { return v.s.now }

// Schedule queues fn on this lane after delay seconds.
func (v *laneView) Schedule(delay float64, fn func()) clock.Handle {
	if delay < 0 {
		delay = 0
	}
	return v.at(v.s.now+delay, fn, v.lane)
}

// At queues fn on this lane at absolute time t.
func (v *laneView) At(t float64, fn func()) clock.Handle {
	return v.at(t, fn, v.lane)
}

func (v *laneView) at(t float64, fn func(), target int32) clock.Handle {
	s := v.s
	if !s.batchActive {
		return s.push(target, t, fn)
	}
	sl := s.curSlot[v.lane]
	if sl == nil {
		panic("sim: lane view used from outside its own lane's callback")
	}
	if math.IsNaN(t) {
		panic("sim: scheduling event at NaN time")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%g, now=%g)", t, s.now))
	}
	// Allocate now so the caller gets a live handle immediately; the
	// sequence number is assigned at the barrier, in slot order.
	ev := s.alloc(int(v.lane))
	ev.at, ev.fn, ev.lane = t, fn, target
	sl.ops = append(sl.ops, slotOp{kind: opSchedule, ev: ev})
	return clock.NewHandle(ev, ev.gen)
}

// Cancel marks the handled event so it will not fire. In a batch the
// mark applies immediately — later events on this lane observe it —
// and the lazy-deletion bookkeeping is buffered for the barrier.
func (v *laneView) Cancel(h clock.Handle) {
	s := v.s
	ev, ok := h.Impl().(*Event)
	if !ok || ev.gen != h.Gen() || ev.canceled {
		return
	}
	if !s.batchActive {
		s.cancelDirect(ev)
		return
	}
	sl := s.curSlot[v.lane]
	if sl == nil {
		panic("sim: lane view used from outside its own lane's callback")
	}
	ev.canceled = true
	sl.ops = append(sl.ops, slotOp{kind: opCancel, ev: ev})
}

// Emit implements clock.Lane: in a batch, fn is buffered and runs at
// the merge barrier in slot order; outside one it runs inline.
func (v *laneView) Emit(fn func()) {
	s := v.s
	if !s.batchActive {
		fn()
		return
	}
	sl := s.curSlot[v.lane]
	if sl == nil {
		panic("sim: lane view used from outside its own lane's callback")
	}
	sl.ops = append(sl.ops, slotOp{kind: opEmit, fn: fn})
}

// Global implements clock.Lane: a Clock scheduling onto the global
// lane, usable from this lane's callbacks.
func (v *laneView) Global() clock.Clock { return &v.g }

// globalVia routes a lane callback's global-lane scheduling through the
// lane's merge buffer, so it stays deterministic and race-free.
type globalVia struct{ v *laneView }

func (g *globalVia) Now() float64 { return g.v.s.now }

func (g *globalVia) Schedule(delay float64, fn func()) clock.Handle {
	if delay < 0 {
		delay = 0
	}
	return g.v.at(g.v.s.now+delay, fn, 0)
}

func (g *globalVia) At(t float64, fn func()) clock.Handle {
	return g.v.at(t, fn, 0)
}

func (g *globalVia) Cancel(h clock.Handle) { g.v.Cancel(h) }
