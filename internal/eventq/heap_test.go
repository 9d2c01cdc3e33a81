package eventq

import (
	"math/rand"
	"sort"
	"testing"
)

type key struct {
	at  float64
	seq uint64
}

func sorted(keys []key) []key {
	out := append([]key(nil), keys...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].seq < out[j].seq
	})
	return out
}

func drain(t *testing.T, h *Heap[int], keys []key, want []key) {
	t.Helper()
	for i, w := range want {
		if top := (*h)[0]; top.At != w.at || top.Seq != w.seq {
			t.Fatalf("pop %d: top is (%g, %d), want (%g, %d)", i, top.At, top.Seq, w.at, w.seq)
		}
		if id := h.Pop(); keys[id] != w {
			t.Fatalf("pop %d: record %d carries key %v, want %v", i, id, keys[id], w)
		}
	}
	if len(*h) != 0 {
		t.Fatalf("%d entries left after draining", len(*h))
	}
}

// Pushes in random order, with most times tied, pop in (at, seq) order at
// every size from empty up — every shape of last level a 4-ary heap has.
func TestPopsInKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 70; n++ {
		keys := make([]key, n)
		for i := range keys {
			keys[i] = key{at: float64(rng.Intn(4)), seq: uint64(i)}
		}
		var h Heap[int]
		for _, i := range rng.Perm(n) {
			h.Push(keys[i].at, keys[i].seq, i)
		}
		drain(t, &h, keys, sorted(keys))
	}
}

// Init restores the order over a slice filtered in place, at every size.
func TestInitAfterFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 70; n++ {
		keys := make([]key, 2*n)
		var h Heap[int]
		for i := range keys {
			keys[i] = key{at: float64(rng.Intn(4)), seq: uint64(i)}
			h.Push(keys[i].at, keys[i].seq, i)
		}
		// Keep a random half, reversed: as far from heap order as it gets.
		var kept []key
		live := h[:0]
		for _, s := range h {
			if rng.Intn(2) == 0 {
				live = append(live, s)
				kept = append(kept, keys[s.Ev])
			}
		}
		for i, j := 0, len(live)-1; i < j; i, j = i+1, j-1 {
			live[i], live[j] = live[j], live[i]
		}
		h = live
		h.Init()
		drain(t, &h, keys, sorted(kept))
	}
}
