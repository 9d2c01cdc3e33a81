package clock

import (
	"testing"
	"time"
)

// fakeSpin runs spin against a clock that advances step seconds per read
// and returns how many times it read the clock and how many times it
// yielded. wakeAtPoll, if positive, delivers a wake once that many reads
// have happened.
func fakeSpin(t, step float64, wakeAtPoll int) (polls, yields int) {
	wake := make(chan struct{}, 1)
	cur := 0.0
	now := func() float64 {
		polls++
		if polls == wakeAtPoll {
			wake <- struct{}{}
		}
		cur += step
		return cur
	}
	spin(t, wake, now, func() { yields++ })
	return polls, yields
}

// TestSpinYieldsByTheClock pins the yield rule: one yield per yieldGap of
// source time however fast or slowly the host polls, at least one over a
// wait longer than the gap, none when the deadline is already past.
func TestSpinYieldsByTheClock(t *testing.T) {
	const wait = 5e-3
	most := int(wait/yieldGap) + 1
	for _, step := range []float64{25e-9, 1e-6, 7e-6, yieldGap, 3 * yieldGap} {
		polls, yields := fakeSpin(wait, step, 0)
		if yields < 1 || yields > most {
			t.Errorf("step %g: %d yields over a %g s wait, want 1..%d", step, yields, wait, most)
		}
		if float64(polls)*step < wait*0.999 {
			t.Errorf("step %g: returned after %d polls, before the %g s deadline", step, polls, wait)
		}
	}
	// At 25 ns a poll the old rule (every eighth poll) yielded 25 000 times
	// over these 5 ms; the gap allows 251.
	if _, yields := fakeSpin(wait, 25e-9, 0); yields < most/2 {
		t.Errorf("fast poller yielded %d times over %g s, want about %d", yields, wait, most)
	}
	if polls, yields := fakeSpin(0, 1e-6, 0); polls != 1 || yields != 0 {
		t.Errorf("deadline already past: %d polls, %d yields, want 1 and 0", polls, yields)
	}
	if _, yields := fakeSpin(yieldGap/2, 1e-6, 0); yields != 0 {
		t.Errorf("a wait shorter than the gap yielded %d times", yields)
	}
}

// TestSpinReturnsOnWakeWithinOnePoll: wake is checked on every poll, so
// the gap between yields delays nothing scheduled on the driver.
func TestSpinReturnsOnWakeWithinOnePoll(t *testing.T) {
	for _, at := range []int{1, 2, 100, 1001} {
		polls, _ := fakeSpin(1, 1e-6, at)
		if polls > at+1 {
			t.Errorf("wake delivered at poll %d, spin read the clock %d times", at, polls)
		}
	}
}

// TestRealSourceWaitYieldsThroughItsHook runs the production WaitUntil on
// the machine clock with a counting hook in place of runtime.Gosched.
func TestRealSourceWaitYieldsThroughItsHook(t *testing.T) {
	yields := 0
	s := &realSource{epoch: time.Now(), yield: func() { yields++ }}
	const wait = 5e-3
	start := s.Now()
	s.WaitUntil(start+wait, make(chan struct{}))
	if got := s.Now() - start; got < wait {
		t.Fatalf("WaitUntil returned after %g s, before its %g s deadline", got, wait)
	}
	// Only the last spinMargin of the wait spins; the timer covers the rest
	// and may wake late, leaving less.
	if most := int(spinMargin/yieldGap) + 1; yields > most {
		t.Errorf("%d yields, want at most %d (spinMargin / yieldGap + 1)", yields, most)
	}
	if src, ok := NewRealSource().(*realSource); !ok || src.yield == nil {
		t.Error("NewRealSource left the yield hook unset")
	}
}
