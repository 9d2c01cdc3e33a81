// Package eventq holds the ordering core of the event queues: a 4-ary
// min-heap over (at, seq) keys stored inline beside their payload.
//
// Every clock in this repository fires events in (at, seq) order — fire
// time, then the monotone sequence number handed out at scheduling — and
// that order is strict and total: no two queued events compare equal. Any
// valid heap over the same set therefore pops the same sequence, so the
// heap's arity and layout are unobservable; they are chosen for speed
// alone. Four children per node halve the depth of a binary heap, a
// sift compares keys that sit next to each other in one slice instead of
// chasing a record pointer per comparison, and sifting moves a hole
// rather than swapping, so an entry is written once per level.
//
// The heap knows nothing about cancellation, generations or recycling;
// those stay with the clock that owns the records: sim.Engine, sim.Sharded
// and clock.Driver, every clock there is. The wall driver came last
// because a 24-byte slot against a pointer looked like memory a live
// server holds by the hundred thousand; its record gave the key's 24
// bytes back (48 bytes a queued event, 56 before), and ordering events
// had been 42% of the serving loop at saturation — DESIGN.md §7 "What the
// live loop costs" has the profile.
package eventq

// Slot is one queued entry: the order key and the record it orders.
type Slot[E any] struct {
	At  float64
	Seq uint64
	Ev  E
}

// after reports whether s fires after the key (at, seq).
func (s *Slot[E]) after(at float64, seq uint64) bool {
	if s.At != at {
		return s.At > at
	}
	return s.Seq > seq
}

// Heap is a 4-ary min-heap of slots under (At, Seq). The zero value is an
// empty heap; h[0] is the minimum whenever len(h) > 0. Callers may filter
// the slice in place (dropping entries, keeping any order) as long as
// they call Init before the next Push or Pop.
type Heap[E any] []Slot[E]

// Push adds an entry.
func (h *Heap[E]) Push(at float64, seq uint64, ev E) {
	q := append(*h, Slot[E]{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q[p].after(at, seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = Slot[E]{At: at, Seq: seq, Ev: ev}
	*h = q
}

// Pop removes the minimum entry and returns its record. It panics on an
// empty heap.
func (h *Heap[E]) Pop() E {
	q := *h
	n := len(q) - 1
	top := q[0].Ev
	last := q[n]
	q[n] = Slot[E]{} // let go of the record
	q = q[:n]
	*h = q
	if n > 0 {
		q.siftDown(0, last)
	}
	return top
}

// Init establishes the heap order over whatever the slice holds, in O(n).
func (h Heap[E]) Init() {
	if len(h) < 2 {
		return
	}
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		h.siftDown(i, h[i])
	}
}

// siftDown places s in the subtree rooted at the hole i.
func (h Heap[E]) siftDown(i int, s Slot[E]) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if h[m].after(h[j].At, h[j].Seq) {
				m = j
			}
		}
		if !s.after(h[m].At, h[m].Seq) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = s
}
