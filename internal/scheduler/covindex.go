package scheduler

import (
	"math"

	"libra/internal/harvest"
)

// CoverageIndex is the incremental candidate structure behind Libra's
// coverage scan (§6.3). The full scan reads every node's pool snapshot on
// every accelerable decision — O(nodes × entries) at Jetstream width. The
// index maintains, per node and axis, a count of pooled tracking objects
// and an upper bound on their maximum expiry, plus a compact candidate
// list of nodes that could score above the empty-pool baseline. A
// decision then inspects only the candidates: any node outside the list
// provably scores exactly the baseline weighted coverage, so skipping it
// cannot change the argmax (Libra.Select re-derives the winner with the
// same float expressions the full scan uses, keeping selections — and the
// golden renders — byte-identical).
//
// Two maintenance modes mirror the two snapshot sources:
//
//   - Ping mode (Libra.Status != nil): the platform refreshes every
//     node's snapshot on the health-ping tick and calls UpdateSnapshot
//     with the same slices coverage will read. The index is exact at
//     every decision because decisions only ever see ping-tick state.
//   - Live mode (Status == nil): the pools call the hook installed via
//     harvest.Pool.SetIndexHook on every mutation, which dirty-marks the
//     node (MarkDirty); the next decision lazily refreshes it from the
//     live pool. Expiry passing in virtual time needs no event: an
//     expired bound only ever over-approximates candidacy, and the sweep
//     evicts nodes whose bounds fell behind now (time is monotone, so an
//     evicted node stays dead until a mutation re-adds it).
//
// The structure is deliberately algorithm-owned, not shard-owned:
// coverage is computed on whole-node pool state ("every scheduler can
// observe the same demand coverage for a node as a whole", §6.4), so one
// index serves all shards of a platform.
type CoverageIndex struct {
	nodes      []covNode
	candidates []int // node ids with possibly-live entries, unordered
}

// covNode is one node's per-axis summary.
type covNode struct {
	cpuCount, memCount int
	cpuBound, memBound float64 // max-expiry upper bounds, -Inf when empty
	dirty              bool    // live mode: pool mutated since last refresh
	inCand             bool
}

// NewCoverageIndex returns an index sized for node ids [0, n). All nodes
// start off the candidate list — pools begin empty.
func NewCoverageIndex(n int) *CoverageIndex {
	idx := &CoverageIndex{nodes: make([]covNode, n)}
	for i := range idx.nodes {
		idx.nodes[i].cpuBound = math.Inf(-1)
		idx.nodes[i].memBound = math.Inf(-1)
	}
	return idx
}

// grow extends the dense state to cover node id.
func (x *CoverageIndex) grow(id int) {
	for len(x.nodes) <= id {
		x.nodes = append(x.nodes, covNode{cpuBound: math.Inf(-1), memBound: math.Inf(-1)})
	}
}

// addCandidate puts id on the candidate list (idempotent).
func (x *CoverageIndex) addCandidate(id int) {
	if e := &x.nodes[id]; !e.inCand {
		e.inCand = true
		x.candidates = append(x.candidates, id)
	}
}

// MarkDirty is the live-mode pool hook: the node's pool state changed, so
// it re-enters the candidate list and its summary is lazily recomputed at
// the next decision. It must stay trivial — pools invoke it while holding
// their own lock.
func (x *CoverageIndex) MarkDirty(id int) {
	x.grow(id)
	x.nodes[id].dirty = true
	x.addCandidate(id)
}

// UpdateSnapshot is the ping-mode refresh: the platform hands over the
// node's freshly copied pool snapshots (sorted by descending expiry, the
// pool's Entries order), and the summary becomes exact for that snapshot.
// nil/empty slices — including a crashed node's darkened snapshot — drop
// the node's summary to empty; the sweep then evicts it lazily.
func (x *CoverageIndex) UpdateSnapshot(id int, cpu, mem []harvest.Entry) {
	x.grow(id)
	e := &x.nodes[id]
	e.cpuCount, e.memCount = len(cpu), len(mem)
	e.cpuBound, e.memBound = math.Inf(-1), math.Inf(-1)
	if len(cpu) > 0 {
		e.cpuBound = cpu[0].Expiry
	}
	if len(mem) > 0 {
		e.memBound = mem[0].Expiry
	}
	e.dirty = false
	if e.cpuCount > 0 || e.memCount > 0 {
		x.addCandidate(id)
	}
}

// refresh recomputes node id's summary from live entry slices (the
// live-mode lazy path; entries are in descending-expiry order).
func (x *CoverageIndex) refresh(id int, cpu, mem []harvest.Entry) {
	x.UpdateSnapshot(id, cpu, mem)
}

// dropCandidate swap-removes candidates[i]; callers must not advance
// their iteration index afterwards.
func (x *CoverageIndex) dropCandidate(i int) {
	id := x.candidates[i]
	x.nodes[id].inCand = false
	last := len(x.candidates) - 1
	x.candidates[i] = x.candidates[last]
	x.candidates = x.candidates[:last]
}

// alive reports whether the axis summary (count, bound) could contribute
// nonzero coverage at now. volumeOnly coverage flattens expiries to the
// window end, so any entry contributes regardless of staleness.
func axisAlive(count int, bound float64, now float64, volumeOnly bool) bool {
	if count <= 0 {
		return false
	}
	return volumeOnly || bound > now
}

// Candidates returns the current candidate count (diagnostics and tests).
func (x *CoverageIndex) Candidates() int { return len(x.candidates) }

// AppendCandidates appends the candidate node ids to dst, in the list's
// own (arbitrary) order (diagnostics and tests).
func (x *CoverageIndex) AppendCandidates(dst []int) []int { return append(dst, x.candidates...) }
