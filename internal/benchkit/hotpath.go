package benchkit

import (
	"testing"

	"libra/internal/cluster"
	"libra/internal/harvest"
	"libra/internal/platform"
	"libra/internal/resources"
	"libra/internal/scheduler"
	"libra/internal/sim"
	"libra/internal/trace"
)

// HotPath returns the fixed registry of hot-path micro-benchmarks whose
// allocs/op trajectory the BENCH_PR4.json acceptance gate tracks. The
// set covers the simulator core (event scheduling, the cluster's
// cancel-and-reschedule re-rating pattern), the scheduler's placement
// scan at Jetstream width, the harvest pool lifecycle, and one
// end-to-end platform run.
func HotPath() []Bench {
	return []Bench{
		{Name: "HotEngineSteadyState", F: BenchEngineSteadyState},
		{Name: "HotEngineRerate", F: BenchEngineRerate},
		{Name: "HotShardSelectLibra50", F: BenchShardSelectLibra50},
		{Name: "HotShardSelectSaturated50", F: BenchShardSelectSaturated50},
		{Name: "HotPoolLifecycle", F: BenchPoolLifecycle},
		{Name: "HotPlatformMultiNode", F: BenchPlatformMultiNode},
		{Name: "HotOverloadReplay500", F: BenchOverloadReplay500},
		{Name: "HotOverloadReplay2000", F: BenchOverloadReplay2000},
		{Name: "HotOverloadReplay8000", F: BenchOverloadReplay8000},
		{Name: "HotLibraSparse50", F: BenchLibraSparse50},
		{Name: "HotLibraSparse200", F: BenchLibraSparse200},
		{Name: "HotLibraSparse1000", F: BenchLibraSparse1000},
	}
}

// BenchEngineSteadyState models the engine's steady state: a long-lived
// engine continuously scheduling new events while half of them are
// cancelled before firing — the mix the platform produces (completions
// are frequently cancelled and re-scheduled by re-rating).
func BenchEngineSteadyState(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := e.Schedule(1, fn)
		if i%2 == 0 {
			e.Cancel(h)
		}
		if i%4 == 3 {
			e.Step()
			e.Step()
		}
	}
	b.StopTimer()
	e.Run()
}

// BenchEngineRerate is the cluster's completion re-rating pattern: an
// armed completion event is cancelled and re-scheduled at a new finish
// time, over and over on one engine.
func BenchEngineRerate(b *testing.B) {
	e := sim.NewEngine()
	fn := func() {}
	h := e.Schedule(10, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cancel(h)
		h = e.Schedule(10, fn)
	}
	b.StopTimer()
	e.Cancel(h)
	e.Run()
}

// benchCluster builds a 50-node Jetstream-capacity cluster whose pools
// hold harvested entries, plus 4 shards — the §8.5 geometry.
func benchCluster() (*sim.Engine, []*cluster.Node, []*scheduler.Shard) {
	eng := sim.NewEngine()
	cap := resources.Vector{CPU: resources.Cores(24), Mem: 24 * 1024}
	nodes := make([]*cluster.Node, 50)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, i, cap)
		// A realistic pool: a handful of sources per node with staggered
		// expiries, so the coverage scan has real entries to stack.
		for j := 0; j < 8; j++ {
			src := harvest.ID(1000 + i*10 + j)
			nodes[i].CPUPool.Put(0, src, 500, float64(5+j))
			nodes[i].MemPool.Put(0, src, 512, float64(5+j))
		}
	}
	shards := scheduler.NewShards(4, nodes, func() scheduler.Algorithm {
		return &scheduler.Libra{}
	})
	return eng, nodes, shards
}

// BenchShardSelectLibra50 measures one timeliness-aware placement
// decision at Jetstream width: a coverage scan over 50 nodes' pool
// status, then the admission commit and release.
func BenchShardSelectLibra50(b *testing.B) {
	_, nodes, shards := benchCluster()
	inv := &cluster.Invocation{ID: 1, UserAlloc: resources.Vector{CPU: 1000, Mem: 1024}}
	req := scheduler.Request{
		Inv:          inv,
		Extra:        resources.Vector{CPU: 2000, Mem: 2048},
		PredDuration: 8,
	}
	s := shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := s.Select(req, nodes)
		if n == nil {
			b.Fatal("no node admitted the benchmark request")
		}
		s.Release(n.ID(), inv.UserAlloc)
	}
}

// BenchShardSelectSaturated50 measures the no-fit path: the request is
// larger than any shard slice, so placement must conclude "no node"
// — the case the pending-queue drain hits on every completion when the
// cluster is saturated.
func BenchShardSelectSaturated50(b *testing.B) {
	_, nodes, shards := benchCluster()
	inv := &cluster.Invocation{ID: 2, UserAlloc: resources.Vector{CPU: 23 * 1000, Mem: 23 * 1024}}
	req := scheduler.Request{
		Inv:          inv,
		Extra:        resources.Vector{CPU: 1000, Mem: 1024},
		PredDuration: 8,
	}
	s := shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.Select(req, nodes); n != nil {
			b.Fatal("saturated request unexpectedly placed")
		}
	}
}

// BenchPoolLifecycle walks one full harvest-pool cycle: put idle units,
// lend them, return one loan, then preemptively release the source.
func BenchPoolLifecycle(b *testing.B) {
	p := harvest.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		src, borrower := harvest.ID(i), harvest.ID(i+1<<30)
		p.Put(now, src, 1000, now+10)
		loans := p.Get(now, borrower, 600)
		for _, l := range loans {
			p.Reharvest(now, l)
		}
		p.ReleaseSource(now, src)
	}
}

// BenchPlatformMultiNode is the end-to-end cell: the full Libra platform
// replaying a 300-invocation minute on the four-worker testbed.
func BenchPlatformMultiNode(b *testing.B) {
	set := trace.MultiSet(300, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPlatform(platform.PresetLibra(platform.MultiNode(), 42)).Run(set)
	}
}

// benchOverloadReplay replays n invocations at 2× the saturated service
// rate of a 6-node Jetstream slice (~18 RPM/node ⇒ 216 RPM aggregate).
// The backlog depth scales with n, so the 500/2000/8000 rungs expose the
// growth order of the per-completion pending-queue work: quadratic
// event cost bends the ns/op-per-invocation curve upward, a
// watermark-gated drain keeps it near-flat.
func benchOverloadReplay(b *testing.B, n int) {
	set := trace.JetstreamSet(n, 216, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPlatform(platform.PresetLibra(platform.Jetstream(6, 2), 42)).Run(set)
	}
}

// BenchOverloadReplay500 is the shallow-backlog rung of the overload
// sweep.
func BenchOverloadReplay500(b *testing.B) { benchOverloadReplay(b, 500) }

// BenchOverloadReplay2000 is the mid-depth rung.
func BenchOverloadReplay2000(b *testing.B) { benchOverloadReplay(b, 2000) }

// BenchOverloadReplay8000 is the deep-backlog rung; under the full-rescan
// drain its cost is dominated by the quadratic pending-queue term.
func BenchOverloadReplay8000(b *testing.B) { benchOverloadReplay(b, 8000) }

// benchLibraSparse measures one accelerable Libra decision on a cluster
// where only 4 of nodeCount nodes hold pool entries — the common shape
// late in a replay, when most pools have drained. A full coverage scan
// pays O(nodes) regardless; the incremental candidate index should make
// the decision cost track the 4 live pools, not the cluster width.
func benchLibraSparse(b *testing.B, nodeCount int) {
	eng := sim.NewEngine()
	cap := resources.Vector{CPU: resources.Cores(24), Mem: 24 * 1024}
	nodes := make([]*cluster.Node, nodeCount)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, i, cap)
	}
	idx := scheduler.NewCoverageIndex(nodeCount)
	for _, n := range nodes {
		id := n.ID()
		n.CPUPool.SetIndexHook(func() { idx.MarkDirty(id) })
		n.MemPool.SetIndexHook(func() { idx.MarkDirty(id) })
	}
	for i := 0; i < 4; i++ {
		n := nodes[i*nodeCount/4]
		for j := 0; j < 8; j++ {
			src := harvest.ID(1000 + i*10 + j)
			n.CPUPool.Put(0, src, 500, float64(50+j))
			n.MemPool.Put(0, src, 512, float64(50+j))
		}
	}
	shards := scheduler.NewShards(2, nodes, func() scheduler.Algorithm {
		return &scheduler.Libra{Index: idx}
	})
	inv := &cluster.Invocation{ID: 1, UserAlloc: resources.Vector{CPU: 1000, Mem: 1024}}
	req := scheduler.Request{
		Inv:          inv,
		Extra:        resources.Vector{CPU: 2000, Mem: 2048},
		PredDuration: 8,
	}
	s := shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := s.Select(req, nodes)
		if n == nil {
			b.Fatal("no node admitted the benchmark request")
		}
		s.Release(n.ID(), inv.UserAlloc)
	}
}

// BenchLibraSparse50 is the sparse-pool decision at Jetstream width.
func BenchLibraSparse50(b *testing.B) { benchLibraSparse(b, 50) }

// BenchLibraSparse200 is the same decision at 4× the node count; the
// 50-vs-200 ratio is the sub-linearity acceptance gate.
func BenchLibraSparse200(b *testing.B) { benchLibraSparse(b, 200) }

// BenchLibraSparse1000 is the decision at the figs4 elastic ceiling —
// the width an autoscaled cluster reaches at the diurnal peak. The
// 50-vs-1000 ratio extends the sub-linearity gate across the full
// elastic range: 20× the nodes must cost far less than 20× per decision.
func BenchLibraSparse1000(b *testing.B) { benchLibraSparse(b, 1000) }

// mustPlatform builds a sim-engine platform from a preset config,
// panicking on the impossible invalid-config case (presets are correct
// by construction).
func mustPlatform(cfg platform.Config) *platform.Platform {
	p, err := platform.New(sim.NewEngine(), cfg)
	if err != nil {
		panic(err)
	}
	return p
}
