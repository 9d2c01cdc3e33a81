package clock

import (
	"container/heap"
	"math"
	"testing"
	"unsafe"
)

// FuzzDriverMatchesContainerHeap pins the Driver's queue — eventq's 4-ary
// heap of key-inline slots — to the one it replaced: the same script of
// schedules, fires, cancels and forced compactions runs on a Driver over
// a ManualSource and on refQueue below, the pointer heap under
// container/heap the Driver used to carry, and both must fire the same
// (at, seq) sequence and agree on Pending after every operation. It is
// internal/sim's FuzzHeapMatchesContainerHeap for the other clock; what it
// adds is the Driver's own half of the queue: the clamp in At, Schedule's
// now + delay, collection of cancelled records at the top, and the
// compaction's release of records into the free list.
//
// A script is a list of (kind, arg) byte pairs. Times advance by 0, 0.5
// or 1 from the instant of the last fire, so most of the heap ties on
// time and is ordered by seq alone.

// refEvent and refHeap are the old Driver's queue: records ordered
// through container/heap's interface, each tracking its own index.
type refEvent struct {
	at       float64
	seq      uint64
	canceled bool
	index    int // heap index, -1 once popped
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// refQueue is the reference clock: lazy cancel, collect on pop.
type refQueue struct {
	q    refHeap
	now  float64
	seq  uint64
	live int
}

func (r *refQueue) push(t float64) *refEvent {
	ev := &refEvent{at: t, seq: r.seq}
	r.seq++
	heap.Push(&r.q, ev)
	r.live++
	return ev
}

func (r *refQueue) cancel(ev *refEvent) {
	if ev.index >= 0 && !ev.canceled {
		ev.canceled = true
		r.live--
	}
}

func (r *refQueue) pop() (*refEvent, bool) {
	for len(r.q) > 0 {
		ev := heap.Pop(&r.q).(*refEvent)
		if ev.canceled {
			continue
		}
		r.now = ev.at
		r.live--
		return ev, true
	}
	return nil, false
}

func (r *refQueue) compact() {
	live := r.q[:0]
	for _, ev := range r.q {
		if ev.canceled {
			ev.index = -1
		} else {
			live = append(live, ev)
		}
	}
	clear(r.q[len(live):])
	r.q = live
	for i, ev := range r.q {
		ev.index = i
	}
	heap.Init(&r.q)
}

const (
	heapFuzzPush byte = iota
	heapFuzzPop
	heapFuzzCancel
	heapFuzzCompact
)

var heapFuzzDeltas = []float64{0, 0, 0, 0.5, 1, 1}

type heapFuzzFire struct {
	at  float64
	seq uint64
}

// fireOne runs d's next live event, jumping src to it, as one turn of
// Driver.Run does. It reports false when nothing is left to fire.
func fireOne(d *Driver, src *ManualSource) bool {
	for {
		fired, nextAt := d.step(false)
		if fired {
			return true
		}
		if math.IsNaN(nextAt) {
			return false
		}
		src.WaitUntil(nextAt, nil)
	}
}

func FuzzDriverMatchesContainerHeap(f *testing.F) {
	push := func(n int, arg byte) []byte {
		var out []byte
		for i := 0; i < n; i++ {
			out = append(out, heapFuzzPush, arg)
		}
		return out
	}
	cancelRange := func(lo, hi int) []byte {
		var out []byte
		for i := lo; i < hi; i++ {
			out = append(out, heapFuzzCancel, byte(i))
		}
		return out
	}
	f.Add([]byte{})
	// Every time equal: 40 pushes at one instant, order is seq alone; the
	// second script makes them through Schedule.
	f.Add(push(40, 0))
	f.Add(push(40, 6))
	// Cancel of the top, then of the new top, then fire.
	f.Add(append(push(9, 0), heapFuzzCancel, 0, heapFuzzCancel, 1, heapFuzzPop, 0, heapFuzzPop, 0))
	// A compaction landing on 0, 1, 2, 4, 5 and 6 survivors: the empty
	// heap, the lone root, a root with one child, a root short of and with
	// all four children, and a second parent with a single child. The seven
	// cancelled events sit on top, so the survivors come out of the filter
	// in push order — latest time first, the earliest last — and only the
	// re-heapify puts them right.
	for _, keep := range []int{0, 1, 2, 4, 5, 6} {
		s := push(7, 0)
		if keep > 0 {
			s = append(s, push(keep-1, 4)...)
			s = append(s, push(1, 3)...)
		}
		s = append(s, cancelRange(0, 7)...)
		f.Add(append(s, heapFuzzCompact, 0))
	}
	// Past the Driver's own compaction threshold: 200 events, the later
	// 130 cancelled, the rest fired.
	f.Add(append(append(push(70, 9), push(130, 4)...), cancelRange(70, 200)...))
	// Interleaved: pushes at mixed deltas by At and Schedule, fires,
	// cancels of fired, live and already-cancelled events, a compaction
	// mid-way.
	f.Add([]byte{0, 3, 0, 6, 0, 4, 0, 1, 1, 0, 0, 0, 2, 1, 2, 1, 0, 11, 1, 0, 2, 0, 0, 2, 3, 0, 0, 0, 1, 0,
		0, 4, 0, 9, 2, 6, 2, 7, 1, 0, 1, 0, 0, 0, 3, 0, 1, 0, 0, 1, 2, 9, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			t.Skip("oversized input adds no new heap shapes")
		}
		src := NewManualSource()
		d := NewDriver(src)
		ref := &refQueue{}
		var got, want []heapFuzzFire
		var handles []Handle
		var refs []*refEvent
		pop := func() bool {
			ev, ok := ref.pop()
			if ok {
				want = append(want, heapFuzzFire{ev.at, ev.seq})
			}
			if fireOne(d, src) != ok {
				t.Fatalf("fired = %v with %d live in the reference", !ok, ref.live)
			}
			return ok
		}
		for op := 0; op+1 < len(data); op += 2 {
			kind, arg := data[op]%4, data[op+1]
			switch kind {
			case heapFuzzPush:
				// arg picks the delta, and whether it goes through At or
				// through Schedule.
				k := int(arg) % (2 * len(heapFuzzDeltas))
				delta := heapFuzzDeltas[k%len(heapFuzzDeltas)]
				seq := ref.seq
				refs = append(refs, ref.push(ref.now+delta))
				fn := func() { got = append(got, heapFuzzFire{d.Now(), seq}) }
				if k < len(heapFuzzDeltas) {
					handles = append(handles, d.At(ref.now+delta, fn))
				} else {
					handles = append(handles, d.Schedule(delta, fn))
				}
			case heapFuzzPop:
				pop()
			case heapFuzzCancel:
				if len(refs) > 0 {
					k := int(arg) % len(refs)
					ref.cancel(refs[k])
					d.Cancel(handles[k])
				}
			case heapFuzzCompact:
				ref.compact()
				d.compact()
				if len(d.queue) != len(ref.q) {
					t.Fatalf("op %d: %d slots after compaction, reference keeps %d", op/2, len(d.queue), len(ref.q))
				}
			}
			if d.Pending() != ref.live {
				t.Fatalf("op %d: Pending = %d, reference holds %d live", op/2, d.Pending(), ref.live)
			}
		}
		for pop() {
		}
		if len(got) != len(want) {
			t.Fatalf("fired %d events, reference fired %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fire %d: got (at=%g, seq=%d), reference (at=%g, seq=%d)",
					i, got[i].at, got[i].seq, want[i].at, want[i].seq)
			}
		}
		if d.Pending() != 0 || len(d.queue) != 0 {
			t.Fatalf("after the drain: Pending %d, %d slots", d.Pending(), len(d.queue))
		}
		parked := make(map[*wallEvent]bool, len(d.free))
		for _, ev := range d.free {
			if parked[ev] {
				t.Fatal("a record was released twice: it is on the free list twice")
			}
			parked[ev] = true
		}
	})
}

// A queued event is a 24-byte heap slot and this record. Without seq and
// index the record is the 24-byte size class exactly — what it gave up
// pays for the slot's key (56 bytes an event with the pointer heap's
// 48-byte record and 8-byte slot, 48 now) — so a new field has to
// displace one.
func TestWallEventStaysInItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(wallEvent{}); got > 24 {
		t.Errorf("wallEvent is %d bytes, over the 24-byte size class", got)
	}
}
