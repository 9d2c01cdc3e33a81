// Package cluster models the serverless worker substrate: nodes with
// fixed CPU/memory capacity, per-node container pools with cold starts and
// warm-container reuse, and an execution engine that supports changing an
// in-flight invocation's allocation at any instant — the simulation
// analogue of the docker-update API Libra uses for preemptive release
// (§7).
//
// Resource accounting invariant: the sum of *user reservations* of the
// invocations running on a node never exceeds the node's capacity.
// Harvesting and acceleration move units strictly inside that envelope
// (a borrowed unit is always some co-located invocation's reserved-but-
// unused unit), so physical feasibility holds by construction.
package cluster

import (
	"fmt"
	"sort"

	"libra/internal/clock"
	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/obs"
	"libra/internal/resources"
	"libra/internal/safeguard"
)

// Invocation carries one function invocation through the platform.
type Invocation struct {
	ID    harvest.ID
	App   *function.Spec
	Input function.Input

	// Actual is the ground-truth demand (hidden from schedulers; the
	// execution engine uses it to compute progress rates and usage).
	Actual function.Demand
	// Predicted demand from the profiler (what policies act on).
	Predicted function.Demand
	// UserAlloc is the developer-configured reservation.
	UserAlloc resources.Vector
	// Reserve is the admission amount. Zero means UserAlloc; the profiler's
	// histogram warm-up window sets it to the platform maximum so the
	// invocation is served with maximum allocation from node capacity
	// (§4.3.2) rather than from harvested loans.
	Reserve resources.Vector

	// Timeline (virtual seconds).
	Arrival    float64
	SchedPick  float64 // scheduler picked it up
	SchedDone  float64 // decision made, sent to node
	ExecStart  float64 // container ready, code starts
	End        float64
	NodeID     int
	ColdStart  bool
	Harvested  bool // resources were harvested from it
	Accelerate bool // it received borrowed resources
	Safeguard  bool // the safeguard fired for it
	// Slot belongs to whoever dispatches the invocation to nodes: the
	// platform keeps its scheduling record's index here and finds the
	// record again when OnComplete or OnFailure hands the invocation
	// back. Nodes never read it. It sits in the padding after the four
	// flags, so the record stays in its size class.
	Slot int32

	// Reassignment integrals for Fig 8: ∫(alloc − user) dt per axis.
	CPUReassignSec float64 // core-seconds (may be negative)
	MemReassignSec float64 // MB-seconds (may be negative)

	// Fault-injection bookkeeping (zero when no fault layer is active).
	Failures  int     // times this invocation was aborted (node crash or OOM kill)
	FirstFail float64 // virtual time of the first abort (meaningful when Failures > 0)
	Straggler bool    // execution duration was inflated by fault injection
}

// FailureKind classifies why an in-flight invocation was aborted.
type FailureKind int

const (
	// FailCrash: the invocation's node died with it in flight.
	FailCrash FailureKind = iota
	// FailOOM: the invocation's true memory demand overran its reduced
	// allocation while the harvested remainder was out on loan.
	FailOOM
)

// String names the failure kind for reports.
func (k FailureKind) String() string {
	switch k {
	case FailCrash:
		return "crash"
	case FailOOM:
		return "oom"
	}
	return fmt.Sprintf("FailureKind(%d)", int(k))
}

// ResponseLatency is the end-to-end response time (§8.1).
func (inv *Invocation) ResponseLatency() float64 { return inv.End - inv.Arrival }

// Reservation is the amount admission control charges for the
// invocation: Reserve if set, the user reservation otherwise.
func (inv *Invocation) Reservation() resources.Vector {
	if inv.Reserve.IsZero() {
		return inv.UserAlloc
	}
	return inv.Reserve
}

// StartOptions tells a node how to run an invocation.
type StartOptions struct {
	// OwnAlloc is the allocation carved from the invocation's own user
	// reservation. It must fit within UserAlloc; the remainder
	// (UserAlloc − OwnAlloc) is harvested into the node's pools with
	// expiry HarvestExpiry.
	OwnAlloc resources.Vector
	// HarvestExpiry is the priority timestamp for harvested units (the
	// predicted completion time). Required whenever OwnAlloc < UserAlloc.
	HarvestExpiry float64
	// ExtraWant asks the node to borrow up to this much beyond OwnAlloc
	// from its harvest pools (best-effort acceleration).
	ExtraWant resources.Vector
	// BonusUpTo asks the node for revocable burst capacity from its
	// *uncommitted* headroom, up to this much beyond OwnAlloc. Bonus
	// grants are stripped whenever a new admission needs the capacity —
	// the work-conserving path that serves histogram profiling-window
	// invocations "with maximum allocation" (§4.3.2) without reserving it.
	BonusUpTo resources.Vector
	// Safeguard enables the per-container safeguard daemon with the given
	// usage threshold (e.g. 0.8). Zero threshold disables it.
	SafeguardThreshold float64
	// MonitorWindow is the safeguard's monitor window in seconds
	// (default 0.1, §5.2).
	MonitorWindow float64
	// OOMDelay, when positive, arms the OOM-kill fault model: that many
	// seconds after code start, if the invocation's true memory peak
	// overruns its current allocation while memory harvested from it is
	// out on loan, the kernel kills it (OnFailure fires with FailOOM).
	OOMDelay float64
}

// execPhase says what an exec's one lifecycle event means when it fires.
// The three stages are never pending together, so they share a handle
// and a callback.
type execPhase uint8

const (
	phaseInit execPhase = iota // container initializing; fire begins execution
	phaseRun                   // code running; fire completes it
	phaseTail                  // completed; fire is the cross-node tail
)

// exec is the runtime state of one invocation on a node. Records are
// recycled (newExec/putExec), and the callbacks an exec hands to the clock
// are closures over the record, bound once in its first life — a
// lifecycle event costs no allocation. That is safe because a record is
// only parked once none of its events can still fire: complete and abort
// cancel whatever is armed before the record leaves the running list.
type exec struct {
	inv *Invocation

	own       resources.Vector // allocation from its own reservation
	borrowed  resources.Vector // allocation borrowed via loans
	bonus     resources.Vector // revocable burst grant from free capacity
	wantExtra resources.Vector // target extra demand (acceleration goal)
	cpuLoans  []*harvest.Loan
	memLoans  []*harvest.Loan

	remaining  float64 // work left, in rate-1 seconds
	rate       float64
	lastUpdate float64
	ev         clock.Handle // pending init completion, then pending finish
	slot       int32        // position in Node.running while live
	live       bool         // in Node.running: neither completed nor aborted yet
	started    bool         // code execution began (past cold start)
	phase      execPhase

	// bonusUpTo is what beginExecution needs from StartOptions, kept here
	// so the init event captures nothing.
	bonusUpTo resources.Vector
	// watch is set by Start for an execution that the safeguard daemon or
	// the OOM fault model has to look at, nil in the record's first lives
	// otherwise; once made it stays with the record.
	watch *watch

	// fire is the lifecycle callback: it dispatches on phase. On the lane
	// clock it ends container init and then execution; on the tail clock it
	// runs the completion tail (OnComplete, record recycling).
	fire func()
}

// watch is what the safeguard daemon (§5.2) and the OOM fault model keep
// per execution: their parameters from StartOptions, their pending events
// and their callbacks, bound on first use. Only an invocation that has
// been harvested from can need either, so these 88 bytes are a record of
// their own rather than part of every exec — a live server under load
// holds tens of thousands of exec records and harvests from few.
type watch struct {
	sgThreshold   float64
	monitorWindow float64
	oomDelay      float64
	sgEv          clock.Handle
	oomEv         clock.Handle
	sgFire        func()
	oomFire       func()
}

func (e *exec) alloc() resources.Vector { return e.own.Add(e.borrowed).Add(e.bonus) }

// Node is one worker.
type Node struct {
	clk clock.Clock
	id  int
	cap resources.Vector

	// laneClk schedules the node's own event stream — container-init
	// completion, execution finish, safeguard windows, OOM checks. It
	// defaults to clk; SetLane repins it to one lane of a sharded clock
	// so the per-node hot path runs on a lane goroutine. Every callback
	// scheduled through it touches only this node's state.
	laneClk clock.Clock
	// tailClk schedules the cross-node tails of lane events (completion
	// and failure notification into the platform). It defaults to clk;
	// SetLane repins it to the sharded clock's global lane, where the
	// tails serialize with every lane at the merge barrier.
	tailClk clock.Clock

	committed resources.Vector // Σ user reservations of running invocations
	bonusOut  resources.Vector // Σ outstanding revocable bonus grants
	aggUsage  resources.Vector // Σ usage of started execs (incremental, see aggAdd)
	aggAlloc  resources.Vector // Σ alloc of all running execs (incremental)
	// running lists the invocations on the node, in no order: each record
	// knows its slot, leaving is a swap-remove, and every walk either sorts
	// what it collects or sums integers.
	running []*exec
	// warm holds one list of warm containers per application that ever
	// completed here, found by spec identity.
	warm      []warmList
	warmTTL   float64
	evictions int

	CPUPool *harvest.Pool // millicores
	MemPool *harvest.Pool // MB

	// usage/allocation integrals for utilization metrics
	lastSample    float64
	usageIntegral struct{ cpu, mem float64 }
	allocIntegral struct{ cpu, mem float64 }
	coldStarts    int
	completions   int

	down     bool // crashed and not yet repaired
	draining bool // scale-down drain: no new admissions, running work finishes
	retired  bool // removed from the cluster by scale-down (parked for reuse)

	// Tracer, if set, records the node-side lifecycle events (container
	// acquisition, execution start, safeguard retreats, OOM kills, crash
	// aborts, completions). The pool-side events are recorded by the
	// node's CPUPool/MemPool tracers, set separately via Pool.SetTracer.
	// nil disables tracing at the cost of one nil check per event site.
	Tracer obs.Tracer
	// OnComplete, if set, is called when an invocation finishes.
	OnComplete func(*Invocation)
	// OnFailure, if set, is called when an in-flight invocation is
	// aborted by a fault (OOM kill; node crashes report their aborted
	// invocations through Crash's return value instead, so the caller
	// controls the recovery order).
	OnFailure func(*Invocation, FailureKind)

	// freeExec recycles execution records (one per finished invocation);
	// execBuf is the candidate buffer replenish and reclaimBonuses sort in
	// (neither runs inside the other's loop); revokedBuf is where
	// releaseSource collects the loans it strips.
	freeExec   []*exec
	execBuf    []*exec
	revokedBuf []*harvest.Loan
}

// warmList is one application's warm containers on a node: the times
// their idle TTLs run out, in completion order.
type warmList struct {
	spec   *function.Spec
	expiry []float64
}

// First capacities of a node's lists, taken in NewNode so a run's nodes
// grow none of them in the common case: a node admits a few dozen
// reservations at most, and the catalog has ten applications.
const (
	runningCap = 32
	warmCap    = 12
)

// DefaultWarmTTL is how long an idle warm container is kept before
// eviction — OpenWhisk's default idle-container grace is on the order of
// ten minutes.
const DefaultWarmTTL = 600.0

// NewNode creates a worker node with the given capacity.
func NewNode(clk clock.Clock, id int, cap resources.Vector) *Node {
	return &Node{
		clk:     clk,
		laneClk: clk,
		tailClk: clk,
		id:      id,
		cap:     cap,
		warmTTL: DefaultWarmTTL,
		running: make([]*exec, 0, runningCap),
		warm:    make([]warmList, 0, warmCap),
		CPUPool: harvest.New(),
		MemPool: harvest.New(),
	}
}

// SetLane pins the node's event stream to one lane of a sharded clock:
// per-node events (init/finish/safeguard/OOM) schedule onto the lane and
// run on its goroutine, while cross-node tails route to the global lane.
// Must be called before any invocation starts; the lane must stay fixed
// for the node's lifetime (the sharded engine's single-owner contract).
func (n *Node) SetLane(lane clock.Lane) {
	n.laneClk = lane
	n.tailClk = lane.Global()
}

// SetWarmTTL changes the idle-container eviction delay; zero or negative
// disables warm reuse entirely (every start is cold).
func (n *Node) SetWarmTTL(ttl float64) { n.warmTTL = ttl }

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Capacity returns the node capacity.
func (n *Node) Capacity() resources.Vector { return n.cap }

// Committed returns the summed user reservations currently admitted.
func (n *Node) Committed() resources.Vector { return n.committed }

// Free returns capacity minus committed reservations.
func (n *Node) Free() resources.Vector { return n.cap.Sub(n.committed) }

// Running returns the number of invocations currently on the node
// (including those still in container init).
func (n *Node) Running() int { return len(n.running) }

// enter puts e on the running list; leave takes it off again.
func (n *Node) enter(e *exec) {
	e.slot, e.live = int32(len(n.running)), true
	n.running = append(n.running, e)
}

func (n *Node) leave(e *exec) {
	last := len(n.running) - 1
	moved := n.running[last]
	n.running[e.slot], moved.slot = moved, e.slot
	n.running[last] = nil
	n.running = n.running[:last]
	e.live = false
}

// ColdStarts returns how many container cold starts the node performed.
func (n *Node) ColdStarts() int { return n.coldStarts }

// Evictions returns how many idle warm containers timed out.
func (n *Node) Evictions() int { return n.evictions }

// Completions returns how many invocations finished on this node.
func (n *Node) Completions() int { return n.completions }

// WarmFor returns how many warm containers the node holds for spec right
// now: zero means a Start at this instant pays the cold start. Containers
// whose idle TTL has run out are evicted (and counted) on the way. Start
// makes its cold-or-warm decision through the same lookup, so a caller
// that needs the decision before Start — the platform, to predict when
// harvested units expire — cannot disagree with it.
func (n *Node) WarmFor(spec *function.Spec) int {
	if w := n.warmOf(spec); w != nil {
		return len(w.expiry)
	}
	return 0
}

// WarmContainers is WarmFor for callers that have the application's name.
func (n *Node) WarmContainers(app string) int {
	for i := range n.warm {
		if n.warm[i].spec.Name == app {
			return n.WarmFor(n.warm[i].spec)
		}
	}
	return 0
}

// warmOf returns spec's warm list with the expired containers evicted, or
// nil when the node keeps none (warm reuse disabled, or nothing of spec
// completed here yet). Entries are appended in completion order, so the
// expired prefix is contiguous.
func (n *Node) warmOf(spec *function.Spec) *warmList {
	if n.warmTTL <= 0 {
		return nil
	}
	for i := range n.warm {
		w := &n.warm[i]
		if w.spec != spec {
			continue
		}
		now := n.clk.Now()
		k := 0
		for k < len(w.expiry) && w.expiry[k] <= now {
			k++
		}
		if k > 0 {
			n.evictions += k
			w.expiry = append(w.expiry[:0], w.expiry[k:]...)
		}
		return w
	}
	return nil
}

// parkWarm returns a finished invocation's container to spec's warm list
// until it is claimed or its idle TTL elapses.
func (n *Node) parkWarm(spec *function.Spec, until float64) {
	for i := range n.warm {
		if w := &n.warm[i]; w.spec == spec {
			w.expiry = append(w.expiry, until)
			return
		}
	}
	// Room for a few from the start: a list that grows one by one costs
	// three allocations on its way to four containers, on every node.
	n.warm = append(n.warm, warmList{spec: spec, expiry: append(make([]float64, 0, 4), until)})
}

// dropWarm evicts every warm container (crash, drain) and returns how
// many there were. The lists keep their storage.
func (n *Node) dropWarm() int {
	dropped := 0
	for i := range n.warm {
		dropped += len(n.warm[i].expiry)
		n.warm[i].expiry = n.warm[i].expiry[:0]
	}
	return dropped
}

// CanAdmit reports whether a user reservation fits in the free capacity.
// A crashed, draining or retired node admits nothing.
func (n *Node) CanAdmit(user resources.Vector) bool {
	if n.down || n.draining || n.retired {
		return false
	}
	return n.committed.Add(user).Fits(n.cap)
}

// Down reports whether the node is crashed and awaiting repair.
func (n *Node) Down() bool { return n.down }

// Draining reports whether the node is in a scale-down drain: it admits
// nothing, but in-flight invocations run to completion.
func (n *Node) Draining() bool { return n.draining }

// Retired reports whether the node has been removed by scale-down. A
// retired node is parked — Unretire revives it on the next scale-up, so
// node IDs stay dense and bounded by peak membership.
func (n *Node) Retired() bool { return n.retired }

// UsageNow returns the resources invocations are actually keeping busy.
// It reads an incrementally-maintained aggregate (see aggAdd/aggSub):
// both axes are integers, so the running sum is exactly the scan it
// replaced — the usage integrals feed accumulate after every event, and
// an O(running) rescan there dominated live-serving throughput.
func (n *Node) UsageNow() resources.Vector { return n.aggUsage }

// AllocatedNow returns the summed current allocations (own + borrowed),
// from the same incremental aggregate as UsageNow.
func (n *Node) AllocatedNow() resources.Vector { return n.aggAlloc }

// RecomputeUsage rescans the running set and returns the usage and
// allocation sums UsageNow/AllocatedNow must equal. It exists for the
// property tests: every exec mutation site has to keep the incremental
// aggregates in lock-step, and a missed site shows up as a mismatch
// here, not as a silently skewed utilization figure.
func (n *Node) RecomputeUsage() (usage, alloc resources.Vector) {
	for _, e := range n.running {
		a := e.alloc()
		alloc = alloc.Add(a)
		if e.started {
			usage = usage.Add(function.Usage(a, e.inv.Actual))
		}
	}
	return usage, alloc
}

// aggAdd counts e into the usage/allocation aggregates. Call it whenever
// an exec enters the running set or after its alloc()/started state
// changed (paired with a preceding aggSub).
func (n *Node) aggAdd(e *exec) {
	a := e.alloc()
	n.aggAlloc = n.aggAlloc.Add(a)
	if e.started {
		n.aggUsage = n.aggUsage.Add(function.Usage(a, e.inv.Actual))
	}
}

// aggSub removes e's current contribution from the aggregates. Must run
// before any mutation of e.own/e.borrowed/e.bonus/e.started, while the
// contribution still matches what aggAdd counted.
func (n *Node) aggSub(e *exec) {
	a := e.alloc()
	n.aggAlloc = n.aggAlloc.Sub(a)
	if e.started {
		n.aggUsage = n.aggUsage.Sub(function.Usage(a, e.inv.Actual))
	}
}

// BonusOut returns the summed outstanding revocable bonus grants.
func (n *Node) BonusOut() resources.Vector { return n.bonusOut }

// AuditAllocations sums the allocation components of every in-flight
// invocation (whether or not its container has initialized). It is the
// node-side half of the conservation double entry the property tests
// assert after every event:
//
//	Σ own + pooled + lent + expired-live == committed   (per axis)
//	Σ borrowed == outstanding loans                     (per axis)
//	Σ bonus == BonusOut ≤ capacity − committed
func (n *Node) AuditAllocations() (own, borrowed, bonus resources.Vector) {
	for _, e := range n.running {
		own = own.Add(e.own)
		borrowed = borrowed.Add(e.borrowed)
		bonus = bonus.Add(e.bonus)
	}
	return own, borrowed, bonus
}

// accumulate advances the usage/allocation integrals to now.
func (n *Node) accumulate() {
	now := n.clk.Now()
	dt := now - n.lastSample
	if dt <= 0 {
		return
	}
	u := n.UsageNow()
	a := n.AllocatedNow()
	n.usageIntegral.cpu += u.CPU.Cores() * dt
	n.usageIntegral.mem += float64(u.Mem) * dt
	n.allocIntegral.cpu += a.CPU.Cores() * dt
	n.allocIntegral.mem += float64(a.Mem) * dt
	n.lastSample = now
}

// UsageIntegrals returns ∫usage dt and ∫allocation dt up to now, in
// core-seconds and MB-seconds.
func (n *Node) UsageIntegrals() (usageCPU, usageMem, allocCPU, allocMem float64) {
	n.accumulate()
	return n.usageIntegral.cpu, n.usageIntegral.mem, n.allocIntegral.cpu, n.allocIntegral.mem
}

// Start admits inv on the node and begins its lifecycle: container
// acquisition (cold or warm), optional harvesting of the unused
// reservation, optional acceleration from the pools, execution, and
// completion. It panics if the reservation does not fit — the scheduler
// must have checked CanAdmit.
func (n *Node) Start(inv *Invocation, opts StartOptions) {
	if n.down || n.draining || n.retired {
		panic(fmt.Sprintf("cluster: node %d is not admitting (down=%v draining=%v retired=%v); scheduler placed invocation %d on it",
			n.id, n.down, n.draining, n.retired, inv.ID))
	}
	reserve := inv.Reservation()
	if !n.CanAdmit(reserve) {
		panic(fmt.Sprintf("cluster: node %d over-committed for invocation %d", n.id, inv.ID))
	}
	if !opts.OwnAlloc.Fits(reserve) {
		panic(fmt.Sprintf("cluster: OwnAlloc %v exceeds reservation %v", opts.OwnAlloc, reserve))
	}
	if opts.OwnAlloc.CPU <= 0 || opts.OwnAlloc.Mem <= 0 {
		panic("cluster: OwnAlloc must be positive on both axes")
	}
	n.accumulate()
	n.committed = n.committed.Add(reserve)
	n.reclaimBonuses()
	inv.NodeID = n.id
	if opts.OwnAlloc.CPU > inv.UserAlloc.CPU || opts.OwnAlloc.Mem > inv.UserAlloc.Mem {
		inv.Accelerate = true // supplementary allocation beyond the user reservation
	}

	e := n.newExec()
	e.inv = inv
	e.own = opts.OwnAlloc
	e.remaining = inv.Actual.Duration
	// The acceleration want is only read once the exec has started, so it
	// can be set here; the rest waits on the record for beginExecution.
	e.wantExtra = opts.ExtraWant
	e.bonusUpTo = opts.BonusUpTo
	n.enter(e)
	n.aggAdd(e)

	// Container acquisition: reuse a warm container if one survives its
	// idle TTL, else pay the cold start. The freshest container is
	// claimed first (LIFO keeps the pool warm).
	delay := 0.0
	cold := false
	if w := n.warmOf(inv.App); w != nil && len(w.expiry) > 0 {
		w.expiry = w.expiry[:len(w.expiry)-1]
	} else {
		delay = inv.App.ColdStart
		cold = true
		inv.ColdStart = true
		n.coldStarts++
	}
	if n.Tracer != nil {
		kind := obs.KindWarmStart
		if cold {
			kind = obs.KindColdStart
		}
		n.Tracer.Record(obs.Event{T: n.clk.Now(), Inv: int64(inv.ID), Kind: kind, Node: n.id, Val: delay})
	}

	// Harvest the reserved-but-predicted-unused remainder immediately:
	// the reservation is committed from admission, so its idle part is
	// available to others even while the container initializes.
	spare := inv.UserAlloc.Sub(opts.OwnAlloc)
	if spare.CPU > 0 {
		n.CPUPool.Put(n.clk.Now(), inv.ID, int64(spare.CPU), opts.HarvestExpiry)
		inv.Harvested = true
	}
	if spare.Mem > 0 {
		n.MemPool.Put(n.clk.Now(), inv.ID, int64(spare.Mem), opts.HarvestExpiry)
		inv.Harvested = true
	}
	// The safeguard watches an invocation that was harvested from (now or
	// in an earlier attempt), the OOM model one whose memory is reduced.
	if (opts.SafeguardThreshold > 0 && inv.Harvested) || (opts.OOMDelay > 0 && spare.Mem > 0) {
		if e.watch == nil {
			e.watch = new(watch)
		}
		e.watch.sgThreshold = opts.SafeguardThreshold
		e.watch.monitorWindow = opts.MonitorWindow
		e.watch.oomDelay = opts.OOMDelay
	}

	e.ev = n.laneClk.Schedule(delay, e.fire)
	n.replenish()
}

// replenish offers pooled idle units to running invocations whose
// acceleration target is not met, earliest arrival first. It runs after
// every event that can add supply (a new harvest, a re-harvest).
func (n *Node) replenish() {
	now := n.clk.Now()
	if n.CPUPool.Available(now) == 0 && n.MemPool.Available(now) == 0 {
		return
	}
	hungry := n.execBuf[:0]
	for _, e := range n.running {
		if !e.started {
			continue
		}
		if e.borrowed.CPU < e.wantExtra.CPU || e.borrowed.Mem < e.wantExtra.Mem {
			hungry = append(hungry, e)
		}
	}
	n.execBuf = hungry[:0]
	// Insertion sort by invocation ID (unique, so a strict total order):
	// replenish runs after every supply event, and sort.Slice's closure
	// allocations would dominate it.
	for i := 1; i < len(hungry); i++ {
		e := hungry[i]
		j := i - 1
		for j >= 0 && hungry[j].inv.ID > e.inv.ID {
			hungry[j+1] = hungry[j]
			j--
		}
		hungry[j+1] = e
	}
	for _, e := range hungry {
		needCPU := int64(e.wantExtra.CPU - e.borrowed.CPU)
		needMem := int64(e.wantExtra.Mem - e.borrowed.Mem)
		nc, nm := len(e.cpuLoans), len(e.memLoans)
		if needCPU > 0 {
			e.cpuLoans = n.CPUPool.AppendLoans(e.cpuLoans, now, e.inv.ID, needCPU)
		}
		if needMem > 0 {
			e.memLoans = n.MemPool.AppendLoans(e.memLoans, now, e.inv.ID, needMem)
		}
		if len(e.cpuLoans) == nc && len(e.memLoans) == nm {
			continue
		}
		n.beginRealloc(e)
		for _, l := range e.cpuLoans[nc:] {
			e.borrowed.CPU += resources.Millicores(l.Vol)
		}
		for _, l := range e.memLoans[nm:] {
			e.borrowed.Mem += resources.MegaBytes(l.Vol)
		}
		n.endRealloc(e)
		e.inv.Accelerate = true
	}
}

// fireExec is every exec's lifecycle callback (exec.fire).
func (n *Node) fireExec(e *exec) {
	switch e.phase {
	case phaseInit:
		n.beginExecution(e)
	case phaseRun:
		n.complete(e)
	case phaseTail:
		n.finishTail(e)
	}
}

func (n *Node) beginExecution(e *exec) {
	now := n.clk.Now()
	n.accumulate() // close the cold-start interval before usage changes
	n.aggSub(e)    // re-counted below once loans/bonus/started settle
	e.ev = clock.Handle{}
	e.phase = phaseRun
	e.inv.ExecStart = now
	e.started = true
	if n.Tracer != nil {
		n.Tracer.Record(obs.Event{T: now, Inv: int64(e.inv.ID), Kind: obs.KindExecStart, Node: n.id})
	}

	// Acceleration: borrow best-effort from the pools. The want persists:
	// whenever new idle units enter the pool, replenish tops starving
	// accelerable invocations back up (reassignment takes effect at any
	// instant, §5.1).
	if e.wantExtra.CPU > 0 {
		e.cpuLoans = n.CPUPool.AppendLoans(e.cpuLoans, now, e.inv.ID, int64(e.wantExtra.CPU))
		for _, l := range e.cpuLoans {
			e.borrowed.CPU += resources.Millicores(l.Vol)
		}
	}
	if e.wantExtra.Mem > 0 {
		e.memLoans = n.MemPool.AppendLoans(e.memLoans, now, e.inv.ID, int64(e.wantExtra.Mem))
		for _, l := range e.memLoans {
			e.borrowed.Mem += resources.MegaBytes(l.Vol)
		}
	}
	if e.bonusUpTo.CPU > 0 || e.bonusUpTo.Mem > 0 {
		grant := e.bonusUpTo.Min(n.cap.Sub(n.committed).Sub(n.bonusOut)).Max(resources.Vector{})
		if !grant.IsZero() {
			e.bonus = grant
			n.bonusOut = n.bonusOut.Add(grant)
			if n.Tracer != nil {
				if grant.CPU > 0 {
					n.Tracer.Record(obs.Event{T: now, Inv: int64(e.inv.ID), Kind: obs.KindBonus,
						Node: n.id, Axis: "cpu", Val: float64(grant.CPU)})
				}
				if grant.Mem > 0 {
					n.Tracer.Record(obs.Event{T: now, Inv: int64(e.inv.ID), Kind: obs.KindBonus,
						Node: n.id, Axis: "mem", Val: float64(grant.Mem)})
				}
			}
		}
	}
	if e.borrowed.CPU > 0 || e.borrowed.Mem > 0 || !e.bonus.IsZero() {
		e.inv.Accelerate = true
	}
	n.aggAdd(e)

	e.lastUpdate = now
	e.rate = function.Rate(e.alloc(), e.inv.Actual)
	n.scheduleCompletion(e)

	// Safeguard daemon (§5.2): after the monitor window, if the
	// container's usage approaches the threshold of its (reduced)
	// allocation, preemptively take all harvested resources back.
	w := e.watch
	if w != nil && w.sgThreshold > 0 && e.inv.Harvested {
		win := w.monitorWindow
		if win <= 0 {
			win = 0.1
		}
		if w.sgFire == nil {
			w.sgFire = func() { n.safeguardCheck(e) }
		}
		w.sgEv = n.laneClk.Schedule(win, w.sgFire)
	}

	// OOM-kill fault model: the invocation reaches its memory peak
	// OOMDelay after code start. If the peak overruns the allocation and
	// the harvested remainder is on loan, the units cannot come back in
	// time and the kernel kills the container (the hazard §5.1's retreat
	// and §5.2's safeguard exist to mitigate — the safeguard restores the
	// allocation at the monitor window, disarming this check).
	if w != nil && w.oomDelay > 0 && e.own.Mem < e.inv.UserAlloc.Mem {
		if w.oomFire == nil {
			w.oomFire = func() { n.oomCheck(e) }
		}
		w.oomEv = n.laneClk.Schedule(w.oomDelay, w.oomFire)
	}
}

// oomCheck fires at the invocation's memory-peak instant when the OOM
// fault model is armed.
func (n *Node) oomCheck(e *exec) {
	if !e.live {
		return // already completed or aborted
	}
	if e.inv.Actual.MemPeak <= e.alloc().Mem {
		return // allocation covers the peak (safeguard restored, or never overran)
	}
	if n.MemPool.LentBy(e.inv.ID) == 0 {
		// Pooled units were never lent (or were already revoked): the node
		// returns them instantly, so no kill — the slow-progress penalty of
		// function.Rate models the pressure instead.
		return
	}
	if n.Tracer != nil {
		n.Tracer.Record(obs.Event{T: n.clk.Now(), Inv: int64(e.inv.ID), Kind: obs.KindOOMKill, Node: n.id})
	}
	inv := e.inv // abort recycles e
	n.abort(e)
	if n.OnFailure != nil {
		// The failure notification reaches into platform state shared by
		// every node (retry queues, shard accounting), so it cannot run on
		// the node's lane: defer it to the tail clock at the same instant.
		n.tailClk.Schedule(0, func() { n.OnFailure(inv, FailOOM) })
	}
}

// scheduleCompletion (re)schedules e's completion event from its current
// rate and remaining work.
func (n *Node) scheduleCompletion(e *exec) {
	n.laneClk.Cancel(e.ev) // no-op on the zero handle or a fired event
	if e.rate <= 0 {
		// Starved (should not happen: own allocation is always positive).
		panic(fmt.Sprintf("cluster: invocation %d starved at rate 0", e.inv.ID))
	}
	e.ev = n.laneClk.Schedule(e.remaining/e.rate, e.fire)
}

// progress advances e's remaining-work account to now and recomputes the
// rate from the current allocation. Callers must reschedule completion.
func (e *exec) progress(now float64) {
	if e.started {
		e.remaining -= e.rate * (now - e.lastUpdate)
		if e.remaining < 0 {
			e.remaining = 0
		}
		// Reassignment integrals relative to the user reservation.
		d := e.alloc().Sub(e.inv.UserAlloc)
		dt := now - e.lastUpdate
		e.inv.CPUReassignSec += d.CPU.Cores() * dt
		e.inv.MemReassignSec += float64(d.Mem) * dt
	}
	e.lastUpdate = now
	e.rate = function.Rate(e.alloc(), e.inv.Actual)
}

// beginRealloc and endRealloc bracket an allocation change to a running
// exec — the docker-update analogue. Between them the caller mutates
// e.own, e.borrowed or e.bonus; begin settles progress and the node's
// integrals under the old allocation, end re-rates under the new one and
// moves the completion event.
func (n *Node) beginRealloc(e *exec) {
	n.accumulate()
	e.progress(n.clk.Now())
	n.aggSub(e)
}

func (n *Node) endRealloc(e *exec) {
	n.aggAdd(e)
	e.rate = function.Rate(e.alloc(), e.inv.Actual)
	if e.started {
		n.scheduleCompletion(e)
	}
}

// safeguardCheck fires once after the monitor window: if the invocation's
// true demand presses against the threshold of its reduced allocation,
// all resources harvested from it are returned (§5.2).
func (n *Node) safeguardCheck(e *exec) {
	if !e.live {
		return // already completed
	}
	use := function.Usage(e.own, e.inv.Actual)
	if !safeguard.ShouldTrigger(use, e.own, e.inv.UserAlloc, e.watch.sgThreshold) {
		return
	}
	e.inv.Safeguard = true
	if n.Tracer != nil {
		n.Tracer.Record(obs.Event{T: n.clk.Now(), Inv: int64(e.inv.ID), Kind: obs.KindSafeguard, Node: n.id})
	}
	n.restoreHarvested(e)
}

// restoreHarvested performs the preemptive release for a still-running
// source invocation: pooled units are withdrawn, lent units are stripped
// from their borrowers in realtime, and the invocation's own allocation
// returns to the full user reservation.
func (n *Node) restoreHarvested(e *exec) {
	now := n.clk.Now()
	n.releaseSource(now, e.inv.ID)
	n.beginRealloc(e)
	e.own = e.inv.UserAlloc
	n.endRealloc(e)
}

// releaseSource is the preemptive release of everything harvested from
// src: its pooled units vanish and its loans are stripped from their
// borrowers in realtime.
func (n *Node) releaseSource(now float64, src harvest.ID) {
	_, revoked := n.CPUPool.ReleaseSourceTo(n.revokedBuf[:0], now, src)
	ncpu := len(revoked)
	_, revoked = n.MemPool.ReleaseSourceTo(revoked, now, src)
	for i, l := range revoked {
		n.stripLoan(now, l, i < ncpu)
		revoked[i] = nil
	}
	n.revokedBuf = revoked[:0]
}

// stripLoan removes a revoked loan's units from its borrower, which then
// hands the record back to the pool (the units went with the source). A
// borrower that already left the running list returns its loans itself.
// Revocations are rare next to lifecycle events, so the borrower is found
// by scanning the list.
func (n *Node) stripLoan(now float64, l *harvest.Loan, isCPU bool) {
	var b *exec
	for _, e := range n.running {
		if e.inv.ID == l.Borrower {
			b = e
			break
		}
	}
	if b == nil {
		return
	}
	n.beginRealloc(b)
	if isCPU {
		b.borrowed.CPU -= resources.Millicores(l.Vol)
		b.cpuLoans = removeLoan(b.cpuLoans, l)
		if b.borrowed.CPU < 0 {
			b.borrowed.CPU = 0
		}
	} else {
		b.borrowed.Mem -= resources.MegaBytes(l.Vol)
		b.memLoans = removeLoan(b.memLoans, l)
		if b.borrowed.Mem < 0 {
			b.borrowed.Mem = 0
		}
	}
	n.endRealloc(b)
	if isCPU {
		n.CPUPool.Reharvest(now, l)
	} else {
		n.MemPool.Reharvest(now, l)
	}
}

func removeLoan(ls []*harvest.Loan, l *harvest.Loan) []*harvest.Loan {
	for i, x := range ls {
		if x == l {
			copy(ls[i:], ls[i+1:])
			ls[len(ls)-1] = nil
			return ls[:len(ls)-1]
		}
	}
	return ls
}

// reclaimBonuses strips revocable bonus grants until the outstanding
// total fits inside the uncommitted capacity again. Newer admissions
// always win over best-effort burst capacity.
func (n *Node) reclaimBonuses() {
	free := n.cap.Sub(n.committed)
	if n.bonusOut.Fits(free) {
		return
	}
	holders := n.execBuf[:0]
	for _, e := range n.running {
		if !e.bonus.IsZero() {
			holders = append(holders, e)
		}
	}
	n.execBuf = holders[:0]
	// Newest first. Insertion sort by invocation ID, as in replenish: IDs
	// are unique, so the order is the one any sort would produce.
	for i := 1; i < len(holders); i++ {
		e := holders[i]
		j := i - 1
		for j >= 0 && holders[j].inv.ID < e.inv.ID {
			holders[j+1] = holders[j]
			j--
		}
		holders[j+1] = e
	}
	for _, e := range holders {
		overCPU := n.bonusOut.CPU - maxMC(0, free.CPU)
		overMem := n.bonusOut.Mem - maxMB(0, free.Mem)
		take := resources.Vector{
			CPU: minMC(e.bonus.CPU, maxMC(0, overCPU)),
			Mem: minMB(e.bonus.Mem, maxMB(0, overMem)),
		}
		if take.IsZero() {
			if n.bonusOut.Fits(n.cap.Sub(n.committed)) {
				break
			}
			continue
		}
		n.beginRealloc(e)
		e.bonus = e.bonus.Sub(take)
		n.endRealloc(e)
		n.bonusOut = n.bonusOut.Sub(take)
		if n.bonusOut.Fits(n.cap.Sub(n.committed)) {
			break
		}
	}
}

func maxMC(a, b resources.Millicores) resources.Millicores {
	if a > b {
		return a
	}
	return b
}
func minMC(a, b resources.Millicores) resources.Millicores {
	if a < b {
		return a
	}
	return b
}
func maxMB(a, b resources.MegaBytes) resources.MegaBytes {
	if a > b {
		return a
	}
	return b
}
func minMB(a, b resources.MegaBytes) resources.MegaBytes {
	if a < b {
		return a
	}
	return b
}

// complete finishes an invocation: releases its reservation, preemptively
// releases everything harvested from it (timeliness!), re-harvests what
// it had borrowed, and returns the container to the warm pool.
func (n *Node) complete(e *exec) {
	now := n.clk.Now()
	n.accumulate()
	e.progress(now)
	if w := e.watch; w != nil {
		n.laneClk.Cancel(w.sgEv) // no-ops unless armed and still pending
		n.laneClk.Cancel(w.oomEv)
	}
	e.inv.End = now
	if n.Tracer != nil {
		n.Tracer.Record(obs.Event{T: now, Inv: int64(e.inv.ID), Kind: obs.KindComplete,
			Node: n.id, Val: e.inv.ResponseLatency()})
	}
	n.aggSub(e)
	n.leave(e)
	n.committed = n.committed.Sub(e.inv.Reservation())
	if !e.bonus.IsZero() {
		n.bonusOut = n.bonusOut.Sub(e.bonus)
		e.bonus = resources.Vector{}
	}
	if !n.committed.Nonnegative() {
		panic(fmt.Sprintf("cluster: node %d committed went negative", n.id))
	}
	n.completions++
	if n.warmTTL > 0 {
		n.parkWarm(e.inv.App, now+n.warmTTL)
	}

	// Timeliness: all resources of this invocation are released NOW,
	// including units it had lent out — strip them from borrowers.
	n.releaseSource(now, e.inv.ID)

	// Re-harvesting: units this invocation borrowed return to the pool
	// with their original expiry if their source still runs.
	n.returnLoans(now, e)

	n.replenish()

	// Everything above touched only this node's state, so it can run on
	// the node's lane. The completion tail reaches into shared platform
	// state — shard release, ready-queue dispatch, metrics — so it runs
	// as a zero-delay event on the tail clock, at the same instant but
	// serialized with every lane. On a serial clock the deferral is the
	// same Schedule(0), keeping the event order identical across drivers.
	e.ev = clock.Handle{}
	e.phase = phaseTail
	n.tailClk.Schedule(0, e.fire)
}

// returnLoans hands everything e borrowed back to the pools. After it the
// loan records belong to the pools again, so e lets go of them here.
func (n *Node) returnLoans(now float64, e *exec) {
	for i, l := range e.cpuLoans {
		n.CPUPool.Reharvest(now, l)
		e.cpuLoans[i] = nil
	}
	for i, l := range e.memLoans {
		n.MemPool.Reharvest(now, l)
		e.memLoans[i] = nil
	}
	e.cpuLoans, e.memLoans = e.cpuLoans[:0], e.memLoans[:0]
}

// finishTail is the cross-node part of complete, run from the tail
// clock: notify the platform, then recycle the record (it left
// n.running in complete, its events have all fired or been cancelled,
// and no caller retains it past OnComplete).
func (n *Node) finishTail(e *exec) {
	if n.OnComplete != nil {
		n.OnComplete(e.inv)
	}
	n.putExec(e)
}

// newExec returns a fresh or recycled execution record.
func (n *Node) newExec() *exec {
	if k := len(n.freeExec); k > 0 {
		e := n.freeExec[k-1]
		n.freeExec[k-1] = nil
		n.freeExec = n.freeExec[:k-1]
		return e
	}
	e := &exec{}
	e.fire = func() { n.fireExec(e) }
	return e
}

// putExec resets an execution record that has left the running list and
// parks it for reuse. None of its events may still be pending: the bound
// callbacks would fire into the record's next life. The loan slices keep
// their storage but drop their pointers (returnLoans has emptied them
// already, unless a crash is wiping the pools and the loans die with
// their borrowers); the bound callbacks stay bound.
func (n *Node) putExec(e *exec) {
	clear(e.cpuLoans)
	clear(e.memLoans)
	if w := e.watch; w != nil {
		*w = watch{sgFire: w.sgFire, oomFire: w.oomFire}
	}
	*e = exec{
		cpuLoans: e.cpuLoans[:0], memLoans: e.memLoans[:0],
		fire: e.fire, watch: e.watch,
	}
	n.freeExec = append(n.freeExec, e)
}

// cancelEvents disarms every pending event of an exec so an aborted
// invocation cannot fire a stale completion, safeguard or OOM check.
func (n *Node) cancelEvents(e *exec) {
	n.laneClk.Cancel(e.ev)
	e.ev = clock.Handle{}
	if w := e.watch; w != nil {
		n.laneClk.Cancel(w.sgEv)
		n.laneClk.Cancel(w.oomEv)
		w.sgEv, w.oomEv = clock.Handle{}, clock.Handle{}
	}
}

// abort removes one failed in-flight invocation from a live node: its
// events are disarmed, its reservation and bonus return, everything
// harvested from it is preemptively released (stripping borrowers in
// realtime), and everything it borrowed re-enters the pool. The container
// is destroyed, not parked warm — a retry pays a fresh cold start. The
// record is recycled: callers read e.inv before, not after.
func (n *Node) abort(e *exec) {
	now := n.clk.Now()
	n.accumulate()
	e.progress(now)
	n.cancelEvents(e)
	n.aggSub(e)
	n.leave(e)
	n.committed = n.committed.Sub(e.inv.Reservation())
	if !e.bonus.IsZero() {
		n.bonusOut = n.bonusOut.Sub(e.bonus)
		e.bonus = resources.Vector{}
	}
	if !n.committed.Nonnegative() {
		panic(fmt.Sprintf("cluster: node %d committed went negative on abort", n.id))
	}

	n.releaseSource(now, e.inv.ID)
	n.returnLoans(now, e)

	e.inv.Failures++
	if e.inv.Failures == 1 {
		e.inv.FirstFail = now
	}
	n.putExec(e)
	n.replenish()
}

// Crash kills the node: every in-flight invocation aborts, the warm
// container pool is lost, and both harvest pools reconcile — all tracking
// objects and loans die with their owners. The node admits nothing until
// Recover. Aborted invocations are returned in ascending-ID order so the
// platform's recovery path replays deterministically; the caller decides
// how (and whether) to retry them.
func (n *Node) Crash() []*Invocation {
	if n.down {
		return nil
	}
	now := n.clk.Now()
	n.accumulate()
	n.down = true

	aborted := make([]*Invocation, 0, len(n.running))
	for _, e := range n.running {
		n.cancelEvents(e)
		e.inv.Failures++
		if e.inv.Failures == 1 {
			e.inv.FirstFail = now
		}
		aborted = append(aborted, e.inv)
		n.putExec(e)
	}
	sort.Slice(aborted, func(i, j int) bool { return aborted[i].ID < aborted[j].ID })
	if n.Tracer != nil {
		// Emitted after the sort: trace order must not depend on list
		// order.
		for _, inv := range aborted {
			n.Tracer.Record(obs.Event{T: now, Inv: int64(inv.ID), Kind: obs.KindCrashAbort, Node: n.id})
		}
	}

	clear(n.running)
	n.running = n.running[:0]
	n.dropWarm()
	n.committed = resources.Vector{}
	n.bonusOut = resources.Vector{}
	n.aggUsage = resources.Vector{}
	n.aggAlloc = resources.Vector{}
	n.CPUPool.ReleaseAll(now)
	n.MemPool.ReleaseAll(now)
	return aborted
}

// Recover repairs a crashed node: it comes back empty — cold container
// cache, empty harvest pools, zero commitments — and admits again. A
// retired node stays parked: the fault injector's repair schedule keeps
// firing for every armed node ID, and scale-down must win over it.
func (n *Node) Recover() {
	if !n.down || n.retired {
		return
	}
	n.accumulate() // close the zero-usage downtime interval
	n.down = false
}

// Drain begins a scale-down drain: the node stops admitting, its warm
// container pool is evicted immediately (the capacity is leaving, so the
// cache must not hold it), and in-flight invocations run to completion.
// Returns how many warm containers were evicted. No-op when already
// draining or retired.
func (n *Node) Drain() int {
	if n.draining || n.retired {
		return 0
	}
	n.draining = true
	evicted := n.dropWarm()
	n.evictions += evicted
	return evicted
}

// Retire removes the node from the cluster at the end of a scale-down
// drain. Any stragglers still in flight abort exactly as in a crash —
// events disarmed, reservations and bonuses returned, outstanding loans
// revoked via ReleaseAll so nothing leaks when the capacity leaves — and
// the node parks until Unretire. Aborted invocations return in
// ascending-ID order for deterministic recovery replay.
func (n *Node) Retire() []*Invocation {
	if n.retired {
		return nil
	}
	aborted := n.Crash() // nil when the node already crashed
	n.retired = true
	n.draining = false
	return aborted
}

// Unretire revives a parked node for scale-up: it rejoins empty — cold
// container cache, empty pools, zero commitments — exactly like a
// repaired crash. Reviving parked nodes first keeps node IDs dense and
// bounded by peak membership. No-op unless retired.
func (n *Node) Unretire() {
	if !n.retired {
		return
	}
	n.retired = false
	n.draining = false
	n.accumulate() // close the zero-usage parked interval
	n.down = false
}
