package sim

import (
	"reflect"
	"testing"
)

// FuzzFeedMatchesAt pins Feed's contract — observably identical to n
// consecutive At calls made at the instant of the Feed call — by running
// one decoded program twice, once handing the batch to Engine.Feed and
// once scheduling every entry with At, and requiring the same fire log,
// the same Fired and Pending after every step, and RunUntil stopping at
// the same event.
//
// A program is static, like FuzzLaneMergeOrder's: roots scheduled before
// the feed (lower sequence numbers than its block), the feed itself
// (repeated timestamps; optionally every entry at t = 0), roots
// scheduled after it (higher), and child specs that callbacks schedule
// at zero and short delays. Every time is a multiple of 0.5, so
// same-instant ties between the lanes are the common case. Callbacks
// also cancel handles that are live, fired, stale or zero, and raise
// cancel storms that push the heap over its compaction threshold — at
// different moments in the two runs, because only one of them has the
// batch in the heap.

const (
	feedFuzzSchedule byte = iota
	feedFuzzCancel
	feedFuzzCancelResched
	feedFuzzStorm
)

// feedFuzzMaxFires stops callbacks scheduling more work: child specs
// form a DAG, but its fan-out is exponential in the worst case.
const feedFuzzMaxFires = 3000

type feedFuzzAction struct {
	kind   byte
	target int
	delay  float64
}

type feedFuzzProgram struct {
	// specs are laid out [pre roots | feed entries | post roots | children].
	npre, nfeed, npost int
	actions            [][]feedFuzzAction
	rootAt             []float64 // fire time of each root and feed entry
	until              float64   // where the RunUntil pass stops
}

var (
	feedFuzzTimes = []float64{0, 0, 0.5, 1, 2, 3}
	feedFuzzGaps  = []float64{0, 0, 0, 0.5, 1}
)

func decodeFeedProgram(data []byte) feedFuzzProgram {
	c := &fuzzCursor{data: data}
	p := feedFuzzProgram{
		npre:  int(c.next()) % 5,
		nfeed: int(c.next()) % 24,
		npost: int(c.next()) % 5,
	}
	nchild := 2 + int(c.next())%10
	burst := c.next()%4 == 0
	p.until = feedFuzzTimes[int(c.next())%len(feedFuzzTimes)]
	roots := p.npre + p.nfeed + p.npost
	n := roots + nchild
	p.rootAt = make([]float64, roots)
	p.actions = make([][]feedFuzzAction, n)
	t := 0.0
	for i := 0; i < roots; i++ {
		switch {
		case i < p.npre || i >= p.npre+p.nfeed:
			p.rootAt[i] = feedFuzzTimes[int(c.next())%len(feedFuzzTimes)]
		case burst:
			p.rootAt[i] = 0
		default:
			t += feedFuzzGaps[int(c.next())%len(feedFuzzGaps)]
			p.rootAt[i] = t
		}
	}
	for i := 0; i < n; i++ {
		// A child may only schedule children after it, which bounds the
		// depth of any chain; roots may schedule any child.
		lo := roots
		if i >= roots {
			lo = i + 1
		}
		for a, na := 0, int(c.next())%4; a < na; a++ {
			act := feedFuzzAction{kind: c.next() % 4}
			switch act.kind {
			case feedFuzzSchedule, feedFuzzCancelResched:
				if lo >= n {
					continue
				}
				act.target = lo + int(c.next())%(n-lo)
				act.delay = feedFuzzGaps[int(c.next())%len(feedFuzzGaps)]
			case feedFuzzCancel:
				act.target = int(c.next()) % n
			}
			p.actions[i] = append(p.actions[i], act)
		}
	}
	return p
}

// feedFuzzFire is one log entry: the event that ran, when, and the
// engine's counters right after it.
type feedFuzzFire struct {
	now     float64
	tag     int
	pending int
	fired   uint64
}

// feedFuzzRun is everything one replay of a program exposes.
type feedFuzzRun struct {
	log          []feedFuzzFire
	untilFires   int // log length when RunUntil returned
	untilNow     float64
	untilPending int
}

// runFeedProgram interprets p on a fresh engine. useFeed picks the lane
// the batch takes; stepwise replays with Step and samples the counters
// after every event, otherwise the replay is RunUntil(p.until) then Run.
func runFeedProgram(p feedFuzzProgram, useFeed, stepwise bool) feedFuzzRun {
	e := NewEngine()
	var out feedFuzzRun
	handles := make([]Handle, len(p.actions))
	var fire func(tag int)
	schedule := func(tag int, delay float64) {
		handles[tag] = e.Schedule(delay, func() { fire(tag) })
	}
	fire = func(tag int) {
		out.log = append(out.log, feedFuzzFire{now: e.Now(), tag: tag})
		open := len(out.log) < feedFuzzMaxFires
		for _, act := range p.actions[tag] {
			switch act.kind {
			case feedFuzzSchedule:
				if open {
					schedule(act.target, act.delay)
				}
			case feedFuzzCancel:
				e.Cancel(handles[act.target])
			case feedFuzzCancelResched:
				e.Cancel(handles[act.target])
				if open {
					schedule(act.target, act.delay)
				}
			case feedFuzzStorm:
				for k := 0; k < 2*compactMin+20; k++ {
					e.Cancel(e.Schedule(1000, func() { fire(-1) }))
				}
			}
		}
	}
	root := func(i int) {
		handles[i] = e.At(p.rootAt[i], func() { fire(i) })
	}
	for i := 0; i < p.npre; i++ {
		root(i)
	}
	at := func(i int) float64 { return p.rootAt[p.npre+i] }
	fn := func(i int) { fire(p.npre + i) }
	if useFeed {
		e.Feed(p.nfeed, at, fn)
	} else {
		for i := 0; i < p.nfeed; i++ {
			e.At(at(i), func() { fn(i) })
		}
	}
	for i := p.npre + p.nfeed; i < len(p.rootAt); i++ {
		root(i)
	}
	if stepwise {
		for e.Step() {
			last := &out.log[len(out.log)-1]
			last.pending, last.fired = e.Pending(), e.Fired()
		}
		return out
	}
	e.RunUntil(p.until)
	out.untilFires, out.untilNow, out.untilPending = len(out.log), e.Now(), e.Pending()
	e.Run()
	return out
}

func FuzzFeedMatchesAt(f *testing.F) {
	f.Add([]byte{})
	// Four pre roots, a 23-entry feed, four post roots, mixed actions.
	f.Add([]byte{4, 23, 4, 9, 1, 3, 0, 2, 1, 3, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1,
		2, 0, 1, 0, 3, 0, 0, 2, 1, 1, 1, 2, 2, 3, 1, 3, 2, 0, 2, 1, 0, 5, 1, 0, 0, 3, 1, 7, 2, 1, 4, 0})
	// The ConcurrentBurst shape: every entry at t = 0 (burst byte 0), every
	// root at t = 0, every delay code 0 — one instant, ordered by seq alone.
	f.Add([]byte{4, 23, 4, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 2, 0, 1, 0, 1,
		0, 0, 0, 1, 0, 2, 0, 0, 1, 0, 3, 0, 0, 0, 0, 0, 2, 1, 0, 1, 0, 0, 0, 3, 0, 2, 0, 0, 0, 1, 0})
	// Cancel-heavy: kinds biased to cancel and cancel+reschedule.
	f.Add([]byte{3, 17, 3, 11, 2, 2, 1, 2, 3, 3, 3, 1, 0, 2, 5, 2, 2, 7, 1, 3, 1, 4, 2, 9, 0, 1, 6, 3, 2, 3, 0,
		1, 1, 2, 1, 8, 2, 2, 4, 1, 3, 1, 5, 1, 9, 2, 0, 3, 1, 2, 2, 6, 0, 1, 3, 2, 1, 1, 1, 2, 2, 2})
	// Storm-heavy: kind 3 dominates, so the heap compacts mid-feed.
	f.Add([]byte{2, 20, 2, 6, 1, 4, 1, 2, 3, 4, 2, 3, 3, 3, 3, 0, 1, 1, 3, 3, 0, 2, 0, 2, 3, 1, 5, 3, 3, 3, 3,
		2, 3, 0, 3, 1, 3, 3, 2, 0, 1, 3, 3, 3, 1, 7, 3, 3, 2, 3, 0, 0, 3, 3, 3, 3, 1, 3, 2, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("oversized input adds no new schedule shapes")
		}
		p := decodeFeedProgram(data)
		for _, stepwise := range []bool{true, false} {
			want := runFeedProgram(p, false, stepwise)
			got := runFeedProgram(p, true, stepwise)
			if reflect.DeepEqual(got, want) {
				continue
			}
			for i := 0; i < len(want.log) && i < len(got.log); i++ {
				if got.log[i] != want.log[i] {
					t.Fatalf("stepwise=%v: first divergence at fire %d:\n At:   %+v\n Feed: %+v",
						stepwise, i, want.log[i], got.log[i])
				}
			}
			t.Fatalf("stepwise=%v: runs diverge:\n At:   %d fires, RunUntil(%g) stopped after %d at now=%g pending=%d\n Feed: %d fires, stopped after %d at now=%g pending=%d",
				stepwise, len(want.log), p.until, want.untilFires, want.untilNow, want.untilPending,
				len(got.log), got.untilFires, got.untilNow, got.untilPending)
		}
	})
}
