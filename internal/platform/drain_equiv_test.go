package platform

import (
	"fmt"
	"testing"

	"libra/internal/cluster"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/obs"
	"libra/internal/resources"
	"libra/internal/scheduler"
	"libra/internal/trace"
)

// installReference swaps the watermark-gated ready queue for the
// pre-optimization pending-list implementation: a plain FIFO slice that
// every drain rescans in full, attempting a Select for every blocked
// invocation. It also detaches the incremental coverage index so Libra
// runs its reference full scan. The equivalence property test pins the
// optimized platform to this implementation dispatch-for-dispatch.
func installReference(p *Platform) {
	var pending []*queued
	p.pushHook = func(q *queued) bool {
		pending = append(pending, q)
		return true
	}
	p.drainHook = func() bool {
		if len(pending) == 0 {
			return true
		}
		var still []*queued
		for _, q := range pending {
			if node := q.shard.Select(p.request(q, p.clk.Now()), p.nodes); node != nil {
				p.dispatch(q, node)
			} else {
				still = append(still, q)
			}
		}
		pending = still
		return true
	}
	for _, l := range p.libras {
		l.Index = nil
	}
}

// overloadFaults is a fault schedule harsh enough to exercise the crash,
// OOM and abandonment paths of the drain within a short replay.
func overloadFaults() faults.Config {
	return faults.Config{CrashMTBF: 90, MTTR: 20, OOMKill: true, StragglerFraction: 0.1, MaxRetries: 2}
}

// The watermark-gated ready queue must be observably identical to the
// full rescan: same dispatch sequence (invocation, node, time), same
// latencies, same fault outcomes — under every platform mode, with and
// without fault injection, in ping and live-pool snapshot modes, across
// seeds. The recorded lifecycle traces capture every decision and span
// event in engine order, so comparing them pins the entire execution.
func TestDrainGatedEquivalentToFullRescan(t *testing.T) {
	type variant struct {
		name string
		cfg  func() Config
	}
	base := func() Config { return PresetLibra(Jetstream(4, 2), 7) }
	variants := []variant{
		{"libra", base},
		{"default", func() Config { return PresetDefault(Jetstream(4, 2), 7) }},
		{"freyr", func() Config { return PresetFreyr(Jetstream(4, 2), 7) }},
		{"libra-live", func() Config { c := base(); c.PingInterval = -1; return c }},
		{"libra-volumeonly", func() Config { c := base(); c.VolumeOnlyCoverage = true; return c }},
	}
	for _, v := range variants {
		for _, faulted := range []bool{false, true} {
			for _, seed := range []int64{1, 42} {
				name := fmt.Sprintf("%s/faults=%v/seed=%d", v.name, faulted, seed)
				t.Run(name, func(t *testing.T) {
					// 2.5× the ~18 RPM/node saturation point of the 4-node
					// testbed: the run spends most of its time with a deep
					// capacity-blocked backlog, which is what the gate reorders
					// if it is wrong anywhere.
					set := trace.JetstreamSet(900, 180, seed)

					run := func(reference bool) (*Result, []obs.Event) {
						cfg := v.cfg()
						cfg.Seed = seed
						if faulted {
							cfg.Faults = overloadFaults()
						}
						rec := obs.NewRecorder()
						cfg.Tracer = rec
						p := mustNew(cfg)
						if reference {
							installReference(p)
						}
						return p.Run(set), rec.Events()
					}

					gotRes, gotEv := run(false)
					wantRes, wantEv := run(true)

					if len(gotEv) != len(wantEv) {
						t.Fatalf("trace length: gated %d events, reference %d", len(gotEv), len(wantEv))
					}
					for i := range wantEv {
						if gotEv[i] != wantEv[i] {
							t.Fatalf("trace diverges at event %d:\n  gated     %+v\n  reference %+v",
								i, gotEv[i], wantEv[i])
						}
					}
					if gotRes.CompletionTime != wantRes.CompletionTime {
						t.Errorf("completion time: gated %v, reference %v", gotRes.CompletionTime, wantRes.CompletionTime)
					}
					if len(gotRes.Records) != len(wantRes.Records) {
						t.Fatalf("records: gated %d, reference %d", len(gotRes.Records), len(wantRes.Records))
					}
					for i := range wantRes.Records {
						g, w := gotRes.Records[i], wantRes.Records[i]
						if g.Inv.ID != w.Inv.ID || g.Latency != w.Latency || g.Inv.NodeID != w.Inv.NodeID {
							t.Fatalf("record %d: gated {id %d node %d lat %v}, reference {id %d node %d lat %v}",
								i, g.Inv.ID, g.Inv.NodeID, g.Latency, w.Inv.ID, w.Inv.NodeID, w.Latency)
						}
					}
					if gotRes.Faults != wantRes.Faults {
						t.Errorf("fault stats: gated %+v, reference %+v", gotRes.Faults, wantRes.Faults)
					}
					if faulted && gotRes.Faults.Abandoned+len(gotRes.Records) != len(set.Invocations) {
						t.Errorf("accounting: %d completed + %d abandoned != %d invocations",
							len(gotRes.Records), gotRes.Faults.Abandoned, len(set.Invocations))
					}
					if gotRes.PeakPending == 0 {
						t.Error("overload run never queued — the scenario does not exercise the gate")
					}
				})
			}
		}
	}
}

// The crash/OOM recovery paths must feed capacity releases through the
// same epoch watermark as normal completions: a backlog blocked at the
// current epoch becomes drainable the moment a failure aborts an
// execution (Shard.Release) or a node crashes or recovers
// (Shard.Rebalance). If any of those paths skipped the epoch bump, the
// gate would deadlock the backlog and the run would never finish; the
// accounting identity below would fail loudly.
func TestFaultReleasesFeedDrainWatermark(t *testing.T) {
	set := trace.JetstreamSet(1200, 240, 3)
	cfg := PresetLibra(Jetstream(4, 2), 3)
	cfg.Faults = faults.Config{CrashMTBF: 60, MTTR: 15, OOMKill: true, MaxRetries: 1}
	p := mustNew(cfg)
	r := p.Run(set)
	if r.Faults.CrashAborts == 0 && r.Faults.OOMKills == 0 {
		t.Fatal("no failures injected — scenario does not exercise the recovery paths")
	}
	if got := len(r.Records) + r.Faults.Abandoned; got != len(set.Invocations) {
		t.Fatalf("%d completed + %d abandoned = %d, want %d: the gated drain lost invocations",
			len(r.Records), r.Faults.Abandoned, got, len(set.Invocations))
	}
	if r.PeakPending == 0 {
		t.Fatal("overload run never queued — the scenario does not exercise the gate")
	}
	if r.LeakedLoans != 0 || r.CapacityViolations != 0 {
		t.Fatalf("invariant audit: %d leaked loans, %d capacity violations", r.LeakedLoans, r.CapacityViolations)
	}
}

// A saturated drain pass — every bucket watermark-blocked or provably
// unfittable — must not allocate: under sustained overload this runs on
// every single completion.
func TestDrainSteadyStateZeroAllocs(t *testing.T) {
	p, s, sreq, small := drainFixture(500)
	allocs := testing.AllocsPerRun(200, func() {
		n := s.Select(sreq, p.nodes)
		if n == nil {
			t.Fatal("small reservation unexpectedly rejected")
		}
		p.drainPending()
		s.Release(n.ID(), small.UserAlloc)
		p.drainPending()
	})
	if allocs != 0 {
		t.Fatalf("saturated drain cycle allocates %v times per completion, want 0", allocs)
	}
}

// BenchmarkDrainGateSaturated measures the per-completion cost of the
// pending-queue drain on a saturated Jetstream cluster: 2 000
// capacity-blocked invocations sit in the queue while one small
// reservation cycles through select → drain → release → drain, the exact
// sequence every completion triggers under sustained overload. Its
// end-to-end twin in `go run ./bench` is phase.complete_s on
// replay-overload.
func BenchmarkDrainGateSaturated(b *testing.B) {
	p, s, sreq, small := drainFixture(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := s.Select(sreq, p.nodes)
		if n == nil {
			b.Fatal("small reservation unexpectedly rejected")
		}
		p.drainPending()
		s.Release(n.ID(), small.UserAlloc)
		p.drainPending()
	}
}

// drainFixture builds a saturated Jetstream platform whose ready queue
// holds depth permanently blocked invocations, plus one small reservation
// that can cycle select → release to trigger drains. Shared by the
// benchmark above and the zero-alloc regression test.
func drainFixture(depth int) (p *Platform, s *scheduler.Shard, sreq scheduler.Request, small *cluster.Invocation) {
	p = mustNew(PresetLibra(Jetstream(50, 4), 1))
	spec := function.Apps()[0]

	// A reservation wider than any node keeps the backlog permanently
	// blocked: every drain pass must conclude "still no room".
	blocked := resources.Vector{CPU: resources.Cores(25), Mem: 25 * 1024}
	for i := 0; i < depth; i++ {
		q := p.newQueued()
		q.inv = &cluster.Invocation{ID: harvest.ID(1000 + i), App: spec, UserAlloc: blocked}
		q.shard, q.app = p.shards[i%len(p.shards)], p.appFor(spec)
		p.pushPending(q)
	}

	small = &cluster.Invocation{ID: 1, App: spec, UserAlloc: resources.Vector{CPU: 100, Mem: 128}}
	sreq = scheduler.Request{Inv: small, PredDuration: 1}
	s = p.shards[0]
	return p, s, sreq, small
}
