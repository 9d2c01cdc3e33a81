package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %g, want 3", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.Live() {
		t.Fatal("handle still live after its cancellation was collected")
	}
	// Double-cancel and zero-handle cancel must be no-ops.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var ev Handle
	e.Schedule(1, func() { e.Cancel(ev) })
	ev = e.Schedule(2, func() { fired = true })
	e.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestRescheduleCompletionPattern(t *testing.T) {
	// The cluster's re-rating pattern: cancel a completion event and
	// schedule a new one, repeatedly.
	e := NewEngine()
	done := 0.0
	ev := e.Schedule(10, func() { done = e.Now() })
	e.Schedule(2, func() {
		e.Cancel(ev)
		ev = e.Schedule(3, func() { done = e.Now() })
	})
	e.Run()
	if done != 5 {
		t.Fatalf("completion at %g, want 5", done)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(1, func() {})
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine()
	at := -1.0
	e.Schedule(2, func() {
		e.Schedule(-5, func() { at = e.Now() })
	})
	e.Run()
	if at != 2 {
		t.Fatalf("negative-delay event fired at %g, want 2", at)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 1,2 only", fired)
	}
	if e.Now() != 2.5 {
		t.Fatalf("Now() = %g, want 2.5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v after Run, want all 4", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %g, want 42", e.Now())
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", e.Fired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

// Property: events fire in nondecreasing time order regardless of the
// insertion order, including interleaved cancellations.
func TestPropertyMonotoneFiring(t *testing.T) {
	f := func(delays []float64, cancelMask []bool) bool {
		e := NewEngine()
		var fireTimes []float64
		var evs []Handle
		for _, d := range delays {
			if d < 0 {
				d = -d
			}
			if d > 1e6 {
				d = 1e6
			}
			evs = append(evs, e.Schedule(d, func() {
				fireTimes = append(fireTimes, e.Now())
			}))
		}
		for i, c := range cancelMask {
			if c && i < len(evs) {
				e.Cancel(evs[i])
			}
		}
		e.Run()
		return sort.Float64sAreSorted(fireTimes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with n scheduled events and k distinct cancels, exactly n-k fire.
func TestPropertyCancelCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		e := NewEngine()
		n := 1 + rng.Intn(200)
		fired := 0
		evs := make([]Handle, n)
		for i := range evs {
			evs[i] = e.Schedule(rng.Float64()*100, func() { fired++ })
		}
		k := rng.Intn(n + 1)
		perm := rng.Perm(n)
		for _, idx := range perm[:k] {
			e.Cancel(evs[idx])
		}
		e.Run()
		if fired != n-k {
			t.Fatalf("n=%d k=%d fired=%d, want %d", n, k, fired, n-k)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(float64(j%97), func() {})
		}
		e.Run()
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var fires []float64
	tk := e.Every(2, func() { fires = append(fires, e.Now()) })
	e.RunUntil(7)
	tk.Stop()
	e.Run()
	want := []float64{2, 4, 6}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestTickerStopFromWithinCallback(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.Every(1, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run() // must drain: stopped ticker does not rearm
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

// Stop must cancel the ticker's armed event: nothing stays in the heap,
// and the clock does not advance to a dead fire when the engine drains.
func TestTickerStopCancelsArmedEvent(t *testing.T) {
	e := NewEngine()
	tk := e.Every(10, func() {})
	e.RunUntil(15) // one fire at 10; next armed for 20
	if e.Pending() != 1 {
		t.Fatalf("pending = %d before Stop, want 1 (the armed fire)", e.Pending())
	}
	tk.Stop()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Stop, want 0 (event cancelled)", e.Pending())
	}
	e.Run()
	if e.Now() != 15 {
		t.Fatalf("clock advanced to %g draining a stopped ticker, want 15", e.Now())
	}
	tk.Stop() // idempotent
}

// Stopping from within the callback cancels nothing (the fired event is
// gone) but must still not re-arm — and a later event keeps its time.
func TestTickerStopFromCallbackLeavesQueueClean(t *testing.T) {
	e := NewEngine()
	var tk *Ticker
	tk = e.Every(1, func() { tk.Stop() })
	e.At(5, func() {})
	e.Run()
	if e.Now() != 5 {
		t.Fatalf("final time %g, want 5", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", e.Pending())
	}
}

// Regression for the Pending() semantics fix: cancelled events are
// lazily parked in the queue, but Pending must count only live events —
// callers (drain loops, tests) read it as "how many events can still
// fire".
func TestPendingExcludesCancelledEvents(t *testing.T) {
	e := NewEngine()
	evs := make([]Handle, 10)
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() {})
	}
	for _, ev := range evs[:3] {
		e.Cancel(ev)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d after 3 of 10 cancelled, want 7", e.Pending())
	}
	// Below the compaction threshold the dead records stay parked: the
	// physical queue still holds all 10.
	if e.QueueLen() != 10 {
		t.Fatalf("QueueLen = %d, want 10 (lazy deletion keeps records parked)", e.QueueLen())
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != 7 {
		t.Fatalf("fired %d events, want 7", fired)
	}
	if e.Pending() != 0 || e.QueueLen() != 0 {
		t.Fatalf("Pending = %d, QueueLen = %d after drain, want 0,0", e.Pending(), e.QueueLen())
	}
}

// Crossing the compaction threshold must physically drop the cancelled
// records while leaving fire order and counts untouched.
func TestCancelCompaction(t *testing.T) {
	e := NewEngine()
	const n = 200
	evs := make([]Handle, n)
	fired := 0
	for i := range evs {
		evs[i] = e.Schedule(float64(i+1), func() { fired++ })
	}
	for _, ev := range evs[:150] {
		e.Cancel(ev)
	}
	if e.Pending() != 50 {
		t.Fatalf("Pending = %d, want 50", e.Pending())
	}
	if e.QueueLen() >= n {
		t.Fatalf("QueueLen = %d, want < %d (compaction should have dropped dead records)", e.QueueLen(), n)
	}
	e.Run()
	if fired != 50 {
		t.Fatalf("fired %d, want 50", fired)
	}
	if e.Now() != n {
		t.Fatalf("Now = %g, want %d (latest surviving event)", e.Now(), n)
	}
}

// A handle that outlives its event must never cancel the record's next
// occupant: the cluster cancels already-fired safeguard/OOM events as a
// matter of course, and with pooling those records get recycled.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, func() {})
	e.Run() // fires; record recycled
	if stale.Live() {
		t.Fatal("handle still live after its event fired")
	}
	fired := false
	fresh := e.Schedule(1, func() { fired = true })
	e.Cancel(stale) // must not touch the recycled record
	if fresh.Canceled() {
		t.Fatal("stale cancel hit the recycled event")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire after a stale cancel")
	}
}

// Records really are recycled: a drained engine's next schedule must not
// grow the heap beyond the free list. (White-box: exercises alloc/release.)
func TestEventRecordsAreRecycled(t *testing.T) {
	e := NewEngine()
	h1 := e.Schedule(1, func() {})
	e.Run()
	h2 := e.Schedule(1, func() {})
	if h1.Impl() == h2.Impl() && h1.Gen() == h2.Gen() {
		t.Fatal("recycled record kept its generation; stale handles would alias")
	}
	e.Cancel(h1) // stale — must be a no-op
	if !h2.Live() {
		t.Fatal("fresh handle reported dead")
	}
	e.Run()
}

// The post-step hook runs once per fired event, never for cancelled ones.
func TestSetPostStep(t *testing.T) {
	e := NewEngine()
	calls := 0
	e.SetPostStep(func() { calls++ })
	ev := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Schedule(3, func() {})
	e.Cancel(ev)
	e.Run()
	if calls != 2 {
		t.Fatalf("post-step hook ran %d times, want 2", calls)
	}
	e.SetPostStep(nil)
	e.Schedule(1, func() {})
	e.Run()
	if calls != 2 {
		t.Fatalf("post-step hook ran after removal: %d calls", calls)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	e.Every(0, func() {})
}

// feedTimes feeds e a batch firing at ts, logging each entry's index.
func feedTimes(e *Engine, ts []float64, got *[]int) {
	e.Feed(len(ts), func(i int) float64 { return ts[i] }, func(i int) { *got = append(*got, i) })
}

// Feed's preconditions are caller bugs and panic, as At(past) does.
func TestFeedPanicsOnContractViolation(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		feed func(e *Engine)
	}{
		{"unsorted", func(e *Engine) { feedTimes(e, []float64{1, 3, 2}, new([]int)) }},
		{"NaN", func(e *Engine) { feedTimes(e, []float64{1, nan, 2}, new([]int)) }},
		{"NaN first", func(e *Engine) { feedTimes(e, []float64{nan}, new([]int)) }},
		{"past", func(e *Engine) {
			e.RunUntil(5)
			feedTimes(e, []float64{4, 6}, new([]int))
		}},
		{"double", func(e *Engine) {
			feedTimes(e, []float64{1, 2}, new([]int))
			e.Step()
			feedTimes(e, []float64{3}, new([]int))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Feed did not panic")
				}
			}()
			c.feed(NewEngine())
		})
	}
}

// A feed that has fired its last entry is gone: the next one is legal,
// even from that last entry's own callback.
func TestFeedAfterDrainedFeed(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Feed(2, func(i int) float64 { return float64(i) }, func(i int) {
		got = append(got, i)
		if i == 1 {
			feedTimes(e, []float64{1, 5}, &got)
		}
	})
	e.Run()
	e.Feed(0, nil, nil) // an empty batch is a no-op
	if want := []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 5 || e.Fired() != 4 || e.Pending() != 0 {
		t.Fatalf("Now = %g, Fired = %d, Pending = %d, want 5, 4, 0", e.Now(), e.Fired(), e.Pending())
	}
}

// Same-instant ties resolve by the sequence block reserved at the Feed
// call: events scheduled before it win, events scheduled after it lose.
func TestFeedTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(1, func() { got = append(got, -1) })
	feedTimes(e, []float64{1, 1, 2}, &got)
	e.At(1, func() { got = append(got, -2) })
	e.At(2, func() { got = append(got, -3) })
	e.Run()
	if want := []int{-1, 0, 1, -2, 2, -3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// Unfired feed entries are events that still can fire: Pending counts
// them, RunUntil stops between them, and QueueLen — the heap — does not.
func TestFeedCountsAsPending(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() {})
	feedTimes(e, []float64{1, 2, 3}, &got)
	if e.Pending() != 4 || e.QueueLen() != 1 {
		t.Fatalf("Pending = %d, QueueLen = %d, want 4, 1", e.Pending(), e.QueueLen())
	}
	e.RunUntil(2.5)
	if len(got) != 2 || e.Now() != 2.5 || e.Pending() != 2 {
		t.Fatalf("after RunUntil(2.5): fired %v, Now = %g, Pending = %d", got, e.Now(), e.Pending())
	}
	e.Run()
	if e.Pending() != 0 || e.Fired() != 4 || e.Now() != 10 {
		t.Fatalf("after Run: Pending = %d, Fired = %d, Now = %g", e.Pending(), e.Fired(), e.Now())
	}
}

// The post-step hook runs after feed fires as after heap fires, with the
// clock still at the entry's time.
func TestFeedRunsPostStep(t *testing.T) {
	e := NewEngine()
	var seen []float64
	e.SetPostStep(func() { seen = append(seen, e.Now()) })
	feedTimes(e, []float64{1, 1, 4}, new([]int))
	e.Schedule(2, func() {})
	e.Run()
	if want := []float64{1, 1, 2, 4}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("post-step saw %v, want %v", seen, want)
	}
}

// What Feed is for: the heap holds in-flight work only. 10 000 entries,
// each scheduling a child that dies before the next entry arrives, never
// put more than the child in the heap.
func TestFeedKeepsHeapShallow(t *testing.T) {
	e := NewEngine()
	const n = 10000
	children := 0
	e.Feed(n, func(i int) float64 { return float64(i) }, func(int) {
		e.Schedule(0.5, func() { children++ })
	})
	e.Run()
	if children != n || e.Fired() != 2*n {
		t.Fatalf("children = %d, Fired = %d, want %d, %d", children, e.Fired(), n, 2*n)
	}
	if e.MaxQueueLen() > 2 {
		t.Fatalf("MaxQueueLen = %d after a %d-entry feed, want ≤ 2 (children in flight)", e.MaxQueueLen(), n)
	}
}
