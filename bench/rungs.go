package main

import (
	"io"
	"math/rand"
	"runtime"
	"time"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/profiler"
	"libra/internal/resources"
	"libra/internal/safeguard"
	"libra/internal/scheduler"
	"libra/internal/sim"
	"libra/internal/trace"
)

// A rung times one layer's operation alone, at a fixed iteration count,
// so that (operations counted in a traced replay) x (rung cost) can be
// set against the span the traced replay measured for that layer. Each
// rung runs in the traced pass of the workload that leans on its layer
// hardest and reads 0 elsewhere.
type rung struct {
	name     string
	workload string
	iters    int  // timed calls at shrink 1
	batched  bool // one call handles batch items and is charged per item
	// build prepares state outside the timed loop and returns the
	// operation; i counts up from 0.
	build func(seed int64) func(i int)
}

// batch is how many items one call of a batched rung handles.
const batch = 1000

// sink keeps results alive so the compiler cannot drop the measured call.
var sink float64

func noop() {}

var jetstreamCap = resources.Vector{CPU: resources.Cores(24), Mem: 24 * 1024}

// pooledCluster is nodes Jetstream workers on eng; the first pooled of
// them (spread evenly) hold eight harvested entries per axis with
// staggered expiries, so a coverage scan has real entries to stack.
func pooledCluster(eng clock.Clock, nodes, pooled int, idx *scheduler.CoverageIndex) []*cluster.Node {
	out := make([]*cluster.Node, nodes)
	for i := range out {
		n := cluster.NewNode(eng, i, jetstreamCap)
		if idx != nil {
			n.CPUPool.SetIndexHook(func() { idx.MarkDirty(i) })
			n.MemPool.SetIndexHook(func() { idx.MarkDirty(i) })
		}
		out[i] = n
	}
	for i := 0; i < pooled; i++ {
		n := out[i*nodes/pooled]
		for j := 0; j < 8; j++ {
			src := harvest.ID(1000 + i*10 + j)
			n.CPUPool.Put(0, src, 500, float64(50+j))
			n.MemPool.Put(0, src, 512, float64(50+j))
		}
	}
	return out
}

// selectRung is one placement decision and its release on shard 0 of k.
func selectRung(nodes, pooled, k int, indexed bool, algo func() scheduler.Algorithm, user, extra resources.Vector, fits bool) func(int64) func(int) {
	return func(int64) func(int) {
		var idx *scheduler.CoverageIndex
		if indexed {
			idx = scheduler.NewCoverageIndex(nodes)
		}
		ns := pooledCluster(sim.NewEngine(), nodes, pooled, idx)
		shard := scheduler.NewShards(k, ns, func() scheduler.Algorithm {
			a := algo()
			if l, ok := a.(*scheduler.Libra); ok {
				l.Index = idx
			}
			return a
		})[0]
		spec := function.Apps()[0]
		inv := &cluster.Invocation{ID: 1, App: spec, UserAlloc: user}
		req := scheduler.Request{Inv: inv, Extra: extra, PredDuration: 8}
		return func(int) {
			n := shard.Select(req, ns)
			if (n != nil) != fits {
				panic("bench: select rung placed differently than built for")
			}
			if n != nil {
				shard.Release(n.ID(), user)
			}
		}
	}
}

func libraAlgo() scheduler.Algorithm   { return &scheduler.Libra{} }
func defaultAlgo() scheduler.Algorithm { return scheduler.HashDefault{} }

var (
	oneCore  = resources.Vector{CPU: 1000, Mem: 1024}
	twoCores = resources.Vector{CPU: 2000, Mem: 2048}
	// almostNode is more than any shard's slice of a node: the no-fit path.
	almostNode = resources.Vector{CPU: 23 * 1000, Mem: 23 * 1024}
)

// sizeRelated and sizeUnrelated are the first catalogue app of each
// class: the ML-predicted and the histogram-predicted path.
func sizeRelated() *function.Spec   { return function.SizeRelatedApps()[0] }
func sizeUnrelated() *function.Spec { return function.SizeUnrelatedApps()[0] }

// trainedProfiler has seen spec once (which trains its models) and
// observed it often enough for the histogram window to be ready.
func trainedProfiler(seed int64, spec *function.Spec) (*profiler.Profiler, []function.Input) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]function.Input, 1024)
	for i := range inputs {
		inputs[i] = spec.SampleInput(rng)
	}
	p := profiler.New(profiler.Config{Seed: seed})
	p.Predict(spec, inputs[0])
	for _, in := range inputs[:16] {
		p.Observe(spec, in, spec.Demand(in))
	}
	return p, inputs
}

var rungs = []rung{
	{"rung.eventq.steady", "replay-steady", 1_000_000, false, func(int64) func(int) {
		// The mix the platform produces: half of what is scheduled is
		// cancelled before it fires.
		e := sim.NewEngine()
		return func(i int) {
			h := e.Schedule(1, noop)
			if i%2 == 0 {
				e.Cancel(h)
			}
			if i%4 == 3 {
				e.Step()
				e.Step()
			}
		}
	}},
	{"rung.eventq.rerate", "replay-steady", 1_000_000, false, func(int64) func(int) {
		// The cluster's completion re-rating: cancel an armed event and
		// schedule it again at a new time.
		e := sim.NewEngine()
		h := e.Schedule(10, noop)
		return func(int) {
			e.Cancel(h)
			h = e.Schedule(10, noop)
		}
	}},
	{"rung.eventq.deep1m", "replay-steady", 200_000, false, func(seed int64) func(int) {
		// One push and one pop under a heap a million deep, the depth a
		// pre-scheduled million-invocation replay starts at.
		e := sim.NewEngine()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			e.Schedule(rng.Float64()*1e6, noop)
		}
		return func(int) {
			e.Schedule(rng.Float64()*1e6, noop)
			e.Step()
		}
	}},
	{"rung.clock.driver_steady", "live-inproc", 1_000_000, false, func(int64) func(int) {
		// rung.eventq.steady's mix on the wall driver under a manual source.
		d := clock.NewDriver(clock.NewManualSource())
		return func(i int) {
			h := d.Schedule(1, noop)
			if i%2 == 0 {
				d.Cancel(h)
			}
			if i%4 == 3 {
				d.Run()
			}
		}
	}},
	{"rung.sched.select_full50", "replay-steady", 20_000, false,
		selectRung(50, 50, 4, false, libraAlgo, oneCore, twoCores, true)},
	{"rung.sched.select_saturated50", "replay-overload", 50_000, false,
		selectRung(50, 50, 4, false, libraAlgo, almostNode, oneCore, false)},
	{"rung.sched.select_sparse50", "replay-steady", 100_000, false,
		selectRung(50, 4, 2, true, libraAlgo, oneCore, twoCores, true)},
	{"rung.sched.select_sparse1000", "replay-steady", 100_000, false,
		selectRung(1000, 4, 2, true, libraAlgo, oneCore, twoCores, true)},
	{"rung.sched.select_default50", "replay-baseline", 1_000_000, false,
		selectRung(50, 0, 4, false, defaultAlgo, oneCore, resources.Vector{}, true)},
	{"rung.harvest.lifecycle", "replay-steady", 500_000, false, func(int64) func(int) {
		// Put idle units, lend them, return the loans, release the source.
		p := harvest.New()
		return func(i int) {
			now := float64(i)
			src, borrower := harvest.ID(i), harvest.ID(i+1<<30)
			p.Put(now, src, 1000, now+10)
			for _, l := range p.Get(now, borrower, 600) {
				p.Reharvest(now, l)
			}
			p.ReleaseSource(now, src)
		}
	}},
	{"rung.profiler.predict_ml", "replay-steady", 100_000, false, func(seed int64) func(int) {
		spec := sizeRelated()
		p, inputs := trainedProfiler(seed, spec)
		if pred, _ := p.Predict(spec, inputs[0]); pred.Source != profiler.SourceML {
			panic("bench: " + spec.Name + " is not predicted by the ML models")
		}
		return func(i int) {
			pred, _ := p.Predict(spec, inputs[i%len(inputs)])
			sink += pred.Demand.Duration
		}
	}},
	{"rung.profiler.predict_hist", "replay-steady", 1_000_000, false, func(seed int64) func(int) {
		spec := sizeUnrelated()
		p, inputs := trainedProfiler(seed, spec)
		if pred, _ := p.Predict(spec, inputs[0]); pred.Source != profiler.SourceHistogram {
			panic("bench: " + spec.Name + " is not predicted by the histogram")
		}
		return func(i int) {
			pred, _ := p.Predict(spec, inputs[i%len(inputs)])
			sink += pred.Demand.Duration
		}
	}},
	{"rung.profiler.observe", "replay-steady", 1_000_000, false, func(seed int64) func(int) {
		spec := sizeUnrelated()
		p, inputs := trainedProfiler(seed, spec)
		demands := make([]function.Demand, len(inputs))
		for i, in := range inputs {
			demands[i] = spec.Demand(in)
		}
		return func(i int) { p.Observe(spec, inputs[i%len(inputs)], demands[i%len(inputs)]) }
	}},
	{"rung.profiler.train", "replay-steady", 10, false, func(seed int64) func(int) {
		// The one-time offline phase: duplicate the input, pilot runs,
		// three forests.
		spec := sizeRelated()
		in := spec.SampleInput(rand.New(rand.NewSource(seed)))
		return func(i int) {
			profiler.New(profiler.Config{Seed: seed + int64(i)}).Predict(spec, in)
		}
	}},
	{"rung.safeguard.check", "replay-steady", 2_000_000, false, func(int64) func(int) {
		user := resources.Vector{CPU: 4000, Mem: 4096}
		return func(i int) {
			pred := function.Demand{CPUPeak: resources.Millicores(500 + i%3000), MemPeak: resources.MegaBytes(256 + i%3000)}
			own := safeguard.PlanOwnAllocation(pred, user)
			usage := resources.Vector{CPU: own.CPU * 7 / 8, Mem: own.Mem * 7 / 8}
			if safeguard.ShouldTrigger(usage, own, user, safeguard.DefaultThreshold) {
				sink++
			}
		}
	}},
	{"rung.cluster.start_complete", "replay-steady", 200_000, false, func(seed int64) func(int) {
		// One invocation through a node: admit, start, execute, complete.
		eng := sim.NewEngine()
		n := cluster.NewNode(eng, 0, jetstreamCap)
		spec := sizeUnrelated()
		in := spec.SampleInput(rand.New(rand.NewSource(seed)))
		actual := spec.Demand(in)
		return func(i int) {
			inv := &cluster.Invocation{ID: harvest.ID(i), App: spec, Input: in,
				Actual: actual, UserAlloc: spec.UserAlloc, Arrival: eng.Now()}
			n.Start(inv, cluster.StartOptions{OwnAlloc: spec.UserAlloc})
			eng.Run()
		}
	}},
	{"rung.function.demand", "replay-steady", 1_000_000, false, func(seed int64) func(int) {
		apps := function.Apps()
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]function.Input, 1024)
		for i := range inputs {
			inputs[i] = apps[i%len(apps)].SampleInput(rng)
		}
		return func(i int) {
			k := i % len(inputs)
			sink += apps[k%len(apps)].Demand(inputs[k]).Duration
		}
	}},
	{"rung.trace.gen_per_inv", "replay-steady", 200, true, func(seed int64) func(int) {
		// Traces of a thousand invocations, charged per invocation.
		return func(i int) {
			set := trace.JetstreamSet(batch, 750, seed+int64(i))
			sink += set.Duration()
		}
	}},
	{"rung.obs.recorder_per_event", "replay-steady", 1_000_000, false, func(int64) func(int) {
		rec := obs.NewRecorder()
		return func(i int) {
			rec.Record(obs.Event{T: float64(i), Inv: int64(i), Kind: obs.KindLoanGrant, Node: 3, Peer: 7, Axis: "cpu", Val: 500})
		}
	}},
	{"rung.obs.stream_per_event", "replay-steady", 500, true, func(int64) func(int) {
		// A stream of a thousand events encoded, flushed and closed,
		// charged per event.
		return func(i int) {
			st := obs.NewStreamTracer(io.Discard)
			for j := 0; j < batch; j++ {
				st.Record(obs.Event{T: float64(i), Inv: int64(j), Kind: obs.KindLoanGrant, Node: 3, Peer: 7, Axis: "cpu", Val: 500})
			}
			if err := st.Close(); err != nil {
				panic("bench: stream tracer: " + err.Error())
			}
		}
	}},
	{"rung.metrics.summarize_per_sample", "replay-steady", 500, true, func(seed int64) func(int) {
		// Summaries of a thousand latencies, charged per latency.
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, batch)
		for i := range data {
			data[i] = rng.ExpFloat64()
		}
		return func(int) { sink += metrics.Summarize(data).P99 }
	}},
}

// runRungs measures the rungs attached to workload into res.
func runRungs(workload string, e env, res *result) {
	for _, r := range rungs {
		if r.workload != workload {
			continue
		}
		iters := max(int(float64(r.iters)*e.shrink), 1)
		op := r.build(e.seed)
		runtime.GC()
		rt := startRuntimeStats()
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op(i)
		}
		d := time.Since(t0)
		mallocs := rt.mallocs()
		ops := float64(iters)
		if r.batched {
			ops *= batch
		}
		res.v[r.name+"_ns"] = float64(d) / ops
		res.v[r.name+"_allocs"] = float64(mallocs) / ops
	}
}
