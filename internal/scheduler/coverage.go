// Package scheduler implements Libra's timeliness-aware function
// scheduling (§6): the demand-coverage metric, the greedy node-selection
// algorithm, the four baseline algorithms of §8.4 (OpenWhisk hash
// default, Round Robin, Join-the-Shortest-Queue, Min-Worker-Set), and the
// per-scheduler capacity shards of the decentralized sharding design
// (§6.4).
package scheduler

import (
	"libra/internal/cluster"
	"libra/internal/harvest"
	"libra/internal/resources"
)

// Coverage computes the demand-coverage ratio (§6.2, Fig 5) of one
// resource axis: how much of an invocation's extra demand of `want` units
// over the window [start, end] the pool snapshot can satisfy, as a
// fraction of want × (end−start) resource-time. Entries are stacked
// greedily, longest expiry first (the pool's own priority order), each
// contributing its overlap with the window. The result is clamped to
// [0, 1].
func Coverage(entries []harvest.Entry, want int64, start, end float64) float64 {
	if want <= 0 {
		return 1
	}
	if end <= start {
		return 0
	}
	denom := float64(want) * (end - start)
	var covered float64
	remaining := want
	for _, e := range entries {
		if remaining <= 0 {
			break
		}
		expiry := e.Expiry
		if expiry <= start {
			continue
		}
		if expiry > end {
			expiry = end
		}
		take := e.Vol
		if take > remaining {
			take = remaining
		}
		covered += float64(take) * (expiry - start)
		remaining -= take
	}
	c := covered / denom
	if c > 1 {
		c = 1
	}
	return c
}

// WeightedCoverage combines the CPU and memory coverage ratios with the
// weight α: D = α·Dc + (1−α)·Dm. The paper sets α = 0.9 — harvested idle
// CPU cores are more precious than memory (§6.2, §8.8).
func WeightedCoverage(dc, dm, alpha float64) float64 {
	return alpha*dc + (1-alpha)*dm
}

// Request is one scheduling decision input.
type Request struct {
	Inv *cluster.Invocation
	// Extra is the predicted demand beyond the user reservation
	// (zero on both axes for non-accelerable invocations).
	Extra resources.Vector
	// PredDuration is the predicted execution time, defining the
	// coverage window.
	PredDuration float64
	Now          float64
	// Home is HomeHash(Inv.App.Name) when the caller has resolved it — the
	// platform does, once per application — and zero when it has not, in
	// which case the hash path computes it from the name.
	Home uint64
}

// Accelerable reports whether the invocation can benefit from extra
// resources (§6.3).
func (r *Request) Accelerable() bool { return r.Extra.CPU > 0 || r.Extra.Mem > 0 }

// Algorithm selects a worker node for an invocation. Implementations must
// only return nodes that can admit the invocation's user reservation
// (possibly within the calling scheduler's capacity shard); nil means no
// node fits and the invocation must wait.
type Algorithm interface {
	Name() string
	Select(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool) *cluster.Node
}

// hashOf gives a stable per-function hash for placement: FNV-1a computed
// inline (identical to hash/fnv.New64a, which would heap-allocate its
// hasher on every decision — the hash path runs once per non-accelerable
// invocation, including every drain retry).
func hashOf(name string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// HomeHash is the hash that pins a function to its home node (see
// HashDefault); it depends on the name alone, so a caller that places many
// invocations of one function can compute it once and pass it as
// Request.Home.
func HomeHash(app string) uint64 { return hashOf(app) }

// HashDefault is OpenWhisk's default placement: a unique hash per
// function pins its invocations to one node, re-probing cyclically when
// the home node lacks capacity (§6.3, §8.4 baseline 1). Pinning reuses
// warm containers and thus reduces cold starts.
type HashDefault struct{}

// Name implements Algorithm.
func (HashDefault) Name() string { return "Default" }

// Select implements Algorithm.
func (HashDefault) Select(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool) *cluster.Node {
	if len(nodes) == 0 {
		return nil
	}
	h := req.Home
	if h == 0 {
		h = hashOf(req.Inv.App.Name)
	}
	home := int(h % uint64(len(nodes)))
	for i := 0; i < len(nodes); i++ {
		n := nodes[(home+i)%len(nodes)]
		if admit(n, req.Inv.Reservation()) {
			return n
		}
	}
	return nil
}

// RoundRobin distributes invocations cyclically (§8.4 baseline 2).
type RoundRobin struct{ next int }

// Name implements Algorithm.
func (*RoundRobin) Name() string { return "RR" }

// Select implements Algorithm.
func (r *RoundRobin) Select(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool) *cluster.Node {
	for i := 0; i < len(nodes); i++ {
		n := nodes[(r.next+i)%len(nodes)]
		if admit(n, req.Inv.Reservation()) {
			r.next = (r.next + i + 1) % len(nodes)
			return n
		}
	}
	return nil
}

// JSQ sends the invocation to the node with the fewest in-flight
// invocations (§8.4 baseline 3).
type JSQ struct{}

// Name implements Algorithm.
func (JSQ) Name() string { return "JSQ" }

// Select implements Algorithm.
func (JSQ) Select(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool) *cluster.Node {
	var best *cluster.Node
	bestQ := int(^uint(0) >> 1)
	for _, n := range nodes {
		if !admit(n, req.Inv.Reservation()) {
			continue
		}
		if q := n.Running(); q < bestQ {
			best, bestQ = n, q
		}
	}
	return best
}

// MWS (Min-Worker-Set) schedules to the node with the least resource
// pressure — the smallest committed-to-capacity fraction (§8.4 baseline
// 4, after Zhang et al.).
type MWS struct{}

// Name implements Algorithm.
func (MWS) Name() string { return "MWS" }

// Select implements Algorithm.
func (MWS) Select(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool) *cluster.Node {
	var best *cluster.Node
	bestP := 2.0
	for _, n := range nodes {
		if !admit(n, req.Inv.Reservation()) {
			continue
		}
		if p := pressure(n); p < bestP {
			best, bestP = n, p
		}
	}
	return best
}

func pressure(n *cluster.Node) float64 {
	c, cap := n.Committed(), n.Capacity()
	pc := float64(c.CPU) / float64(cap.CPU)
	pm := float64(c.Mem) / float64(cap.Mem)
	if pc > pm {
		return pc
	}
	return pm
}

// Libra is the timeliness-aware greedy algorithm (§6.3): non-accelerable
// invocations take the hash path (cold-start locality); accelerable
// invocations go to the admissible node with the maximum weighted demand
// coverage.
type Libra struct {
	// Alpha is the demand-coverage weight (default 0.9).
	Alpha float64
	// VolumeOnly disables the timeliness dimension: coverage counts pool
	// volume regardless of expiry. Used by the ablation bench.
	VolumeOnly bool
	// Status returns the (CPU, memory) pool snapshots used for coverage.
	// In the real system this is the pool status piggybacked on the
	// node's periodic health pings (§6.4), so it may be slightly stale;
	// nil reads the pools live.
	Status func(n *cluster.Node) (cpu, mem []harvest.Entry)
	// Index, when non-nil, replaces the O(nodes) coverage scan with the
	// incremental candidate sweep (see CoverageIndex). Selections are
	// byte-identical to the full scan; the index only skips nodes that
	// provably score the empty-pool baseline. Requires an id-positional
	// node slice (nodes[i].ID() == i, the platform's layout); any other
	// shape falls back to the full scan. nil keeps the full scan — the
	// reference behaviour the equivalence tests compare against.
	Index *CoverageIndex
	hash  HashDefault

	// lastScore is the weighted coverage of the most recent successful
	// coverage-path selection (0 after a hash-path decision); Shard reads
	// it to annotate decision trace events.
	lastScore float64

	// Scratch buffers for the per-node coverage scan: the live-pool
	// snapshot (Status == nil) and the volume-only flattening both reuse
	// their storage across nodes and decisions.
	cpuBuf, memBuf   []harvest.Entry
	cpuFlat, memFlat []harvest.Entry
}

// Name implements Algorithm.
func (*Libra) Name() string { return "Libra" }

// Select implements Algorithm.
func (l *Libra) Select(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool) *cluster.Node {
	alpha := l.Alpha
	if alpha == 0 {
		alpha = 0.9
	}
	l.lastScore = 0
	if !req.Accelerable() {
		return l.hash.Select(req, nodes, admit)
	}
	if l.Index != nil {
		if n, ok := l.selectIndexed(req, nodes, admit, alpha); ok {
			return n
		}
	}
	start := req.Now
	end := req.Now + req.PredDuration
	var best *cluster.Node
	bestD := -1.0
	for _, n := range nodes {
		if !admit(n, req.Inv.Reservation()) {
			continue
		}
		cpuEntries, memEntries := l.nodeEntries(n)
		if d := l.score(cpuEntries, memEntries, req, start, end, alpha); d > bestD {
			best, bestD = n, d
		}
	}
	if best != nil {
		l.lastScore = bestD
	}
	return best
}

// nodeEntries resolves the pool snapshots coverage reads: the ping-status
// callback when set, the live pools otherwise (into the shared scratch
// buffers, valid until the next call).
func (l *Libra) nodeEntries(n *cluster.Node) (cpu, mem []harvest.Entry) {
	if l.Status != nil {
		return l.Status(n)
	}
	l.cpuBuf = n.CPUPool.AppendEntries(l.cpuBuf[:0])
	l.memBuf = n.MemPool.AppendEntries(l.memBuf[:0])
	return l.cpuBuf, l.memBuf
}

// score computes one node's weighted demand coverage. Both the full scan
// and the indexed sweep call this with identical inputs, so their float
// results are bit-equal — the property the byte-identical-render
// guarantee rests on.
func (l *Libra) score(cpuEntries, memEntries []harvest.Entry, req Request, start, end, alpha float64) float64 {
	if l.VolumeOnly {
		l.cpuFlat = flattenExpiry(l.cpuFlat[:0], cpuEntries, end)
		l.memFlat = flattenExpiry(l.memFlat[:0], memEntries, end)
		cpuEntries, memEntries = l.cpuFlat, l.memFlat
	}
	dc := Coverage(cpuEntries, int64(req.Extra.CPU), start, end)
	dm := Coverage(memEntries, int64(req.Extra.Mem), start, end)
	return WeightedCoverage(dc, dm, alpha)
}

// selectIndexed is the sub-linear coverage decision: sweep the index's
// candidates instead of every node. ok is false when the node slice is
// not id-positional and the caller must run the full scan.
//
// Equivalence argument (each step preserves the full scan's outcome):
// a node outside the candidate list has no pool entries the active
// snapshot source knows about, so both axes score Coverage == 0 for a
// wanted axis and == 1 for an unwanted one — exactly the empty-pool
// baseline `base`. A candidate whose wanted axes are all dead (no
// entries, or every expiry ≤ start with timeliness on) scores base by
// the same computation. The full scan keeps the *first* strictly-best
// node, so when the sweep's best exceeds base it is the unique answer
// (position tie-broken); otherwise every admissible node ties at base
// and the winner is the first admissible node in slice order.
func (l *Libra) selectIndexed(req Request, nodes []*cluster.Node, admit func(*cluster.Node, resources.Vector) bool, alpha float64) (*cluster.Node, bool) {
	x := l.Index
	user := req.Inv.Reservation()
	start := req.Now
	end := req.Now + req.PredDuration
	base := WeightedCoverage(
		Coverage(nil, int64(req.Extra.CPU), start, end),
		Coverage(nil, int64(req.Extra.Mem), start, end), alpha)
	var best *cluster.Node
	bestD := -1.0
	bestPos := int(^uint(0) >> 1)
	for i := 0; i < len(x.candidates); {
		id := x.candidates[i]
		if id >= len(nodes) || nodes[id].ID() != id {
			return nil, false
		}
		n := nodes[id]
		e := &x.nodes[id]
		var cpuE, memE []harvest.Entry
		fetched := false
		if e.dirty {
			// Live mode: the pool mutated since the last sweep; refresh
			// the summary from the same entries a scoring pass would read.
			cpuE, memE = l.nodeEntries(n)
			x.refresh(id, cpuE, memE)
			fetched = true
		}
		cpuAlive := axisAlive(e.cpuCount, e.cpuBound, start, l.VolumeOnly)
		memAlive := axisAlive(e.memCount, e.memBound, start, l.VolumeOnly)
		if !cpuAlive && !memAlive {
			// Fully expired (or emptied): scores base now and forever
			// until a mutation or snapshot refresh re-adds it — virtual
			// time is monotone, so lazy eviction is permanent-safe.
			x.dropCandidate(i)
			continue
		}
		if !((req.Extra.CPU > 0 && cpuAlive) || (req.Extra.Mem > 0 && memAlive)) {
			// Alive only on axes this request does not want: scores base.
			i++
			continue
		}
		if !admit(n, user) {
			i++
			continue
		}
		if !fetched {
			cpuE, memE = l.nodeEntries(n)
		}
		if d := l.score(cpuE, memE, req, start, end, alpha); d > bestD || (d == bestD && id < bestPos) {
			best, bestD, bestPos = n, d, id
		}
		i++
	}
	if best != nil && bestD > base {
		l.lastScore = bestD
		return best, true
	}
	// Nothing beats the empty-pool baseline: every admissible node ties
	// at base, and the full scan's strict-improvement rule would keep the
	// first admissible node in slice order.
	for _, n := range nodes {
		if admit(n, user) {
			l.lastScore = base
			return n, true
		}
	}
	return nil, true
}

func flattenExpiry(buf, es []harvest.Entry, end float64) []harvest.Entry {
	for _, e := range es {
		e.Expiry = end
		buf = append(buf, e)
	}
	return buf
}

// ByName constructs one of the five algorithms of §8.4 by its display
// name; the bool reports whether the name is known.
func ByName(name string) (Algorithm, bool) {
	switch name {
	case "Default":
		return HashDefault{}, true
	case "RR":
		return &RoundRobin{}, true
	case "JSQ":
		return JSQ{}, true
	case "MWS":
		return MWS{}, true
	case "Libra":
		return &Libra{}, true
	}
	return nil, false
}

// Names lists the five algorithms in the paper's comparison order.
func Names() []string { return []string{"Default", "RR", "JSQ", "MWS", "Libra"} }
