package platform

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/metrics"
	"libra/internal/obs"
	"libra/internal/sim"
	"libra/internal/trace"
)

// Coverage decisions read the piggybacked health-ping snapshots, which
// lag the live pools by up to PingInterval (§6.4). The platform must run
// correctly across staleness regimes and the live-read mode.
func TestPingStalenessRegimes(t *testing.T) {
	set := trace.MultiSet(120, 9)
	var p99s []float64
	for _, interval := range []float64{-1, 0.2, 1, 5} {
		cfg := PresetLibra(MultiNode(), 9)
		cfg.PingInterval = interval
		r := mustNew(cfg).Run(set)
		if len(r.Records) != len(set.Invocations) {
			t.Fatalf("interval %g: lost invocations", interval)
		}
		p99s = append(p99s, metrics.Summarize(r.Latencies()).P99)
	}
	// All regimes complete with sane latencies; staleness must not change
	// results by an order of magnitude (it only affects node choice).
	for i, v := range p99s {
		if v <= 0 || v > p99s[0]*3+100 {
			t.Fatalf("p99s across ping regimes look broken: %v (index %d)", p99s, i)
		}
	}
}

func TestPingDefaultInterval(t *testing.T) {
	cfg := Config{Nodes: 1, NodeCap: SingleNodeCap}
	cfg.defaults()
	if cfg.PingInterval != 1 {
		t.Fatalf("default PingInterval = %g, want 1", cfg.PingInterval)
	}
}

// pingReplay is one replay with the lifecycle trace recorded and the
// coverage index's candidate set sampled between ping rounds.
type pingReplay struct {
	result     *Result
	events     []obs.Event
	candidates [][]int
	tickers    int // health-ping tickers armed while the replay ran
}

// replayObserved replays set on clk with a ping every second. The sampler
// is one more event stream on the clock, identical in every run that is
// compared, and it lets go once the last invocation has left so the queue
// can drain.
func replayObserved(t *testing.T, clk clock.Clock, cfg Config, set trace.Set, pingAlways bool) pingReplay {
	t.Helper()
	rec := obs.NewRecorder()
	cfg.Tracer = rec
	cfg.PingInterval = 1
	p, err := New(clk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.pingAlways = pingAlways
	var out pingReplay
	var sample func()
	sample = func() {
		out.tickers = max(out.tickers, len(p.pingTickers))
		if p.covIndex != nil {
			ids := p.covIndex.AppendCandidates(nil)
			sort.Ints(ids)
			out.candidates = append(out.candidates, ids)
		}
		if p.remaining > 0 {
			clk.Schedule(1, sample)
		}
	}
	clk.At(0.5, sample)
	out.result = p.Run(set)
	out.events = rec.Events()
	return out
}

// A ping round that copies only the pools that changed must be
// indistinguishable from one that copies every pool of every node: same
// result, same lifecycle trace, same coverage candidates after every
// round. The replay has what makes snapshots go stale in interesting ways —
// crashes and repairs (darkened snapshots), OOM kills, stragglers running
// past their harvest expiry, an elastic group joining and retiring nodes —
// at a rate low enough that most pools sit unchanged through most rounds,
// on the serial engine and on two lanes.
func TestPingCopyingOnlyChangedPoolsChangesNothing(t *testing.T) {
	engines := []struct {
		name string
		new  func() clock.Clock
	}{
		{"serial", func() clock.Clock { return sim.NewEngine() }},
		{"sharded-2", func() clock.Clock { return sim.NewSharded(2) }},
	}
	for _, seed := range []int64{3, 17} {
		cfg := PresetLibra(MultiNode(), seed)
		cfg.Faults = faults.Config{CrashMTBF: 40, MTTR: 5, OOMKill: true, StragglerFraction: 0.1}
		cfg.Autoscale = AutoscaleConfig{Group: cluster.NodeGroup{Name: "ping", Max: 6}, Cooldown: 2}
		set := trace.Generate("ping", function.Apps(), 160, 120, seed)
		for _, e := range engines {
			lazy := replayObserved(t, e.new(), cfg, set, false)
			full := replayObserved(t, e.new(), cfg, set, true)
			name := fmt.Sprintf("seed %d on %s", seed, e.name)
			if lazy.result.Faults.Crashes == 0 || lazy.result.Harvested == 0 || len(lazy.candidates) < 20 {
				t.Fatalf("%s: the replay exercises too little: %d crashes, %d harvested, %d rounds sampled",
					name, lazy.result.Faults.Crashes, lazy.result.Harvested, len(lazy.candidates))
			}
			if !reflect.DeepEqual(lazy.result, full.result) {
				t.Errorf("%s: results differ", name)
			}
			if !reflect.DeepEqual(lazy.events, full.events) {
				t.Errorf("%s: lifecycle traces differ (%d and %d events)", name, len(lazy.events), len(full.events))
			}
			if !reflect.DeepEqual(lazy.candidates, full.candidates) {
				t.Errorf("%s: coverage candidates differ:\n changed-only %v\n every-pool   %v", name, lazy.candidates, full.candidates)
			}
		}
	}
}

// The round itself, on one node: a pool is copied again only after it
// changed, a crash drops the snapshot, and the first ping after the
// repair copies afresh.
func TestPingTickCopiesAPoolOnlyAfterItChanged(t *testing.T) {
	p := mustNew(PresetLibra(MultiNode(), 1))
	n, st := p.nodes[0], &p.pings[0]
	n.CPUPool.Put(0, 7, 500, 100)
	p.pingTick()
	if len(st.cpu) != 1 || st.cpu[0].Vol != 500 || len(st.mem) != 0 {
		t.Fatalf("first ping: snapshot %v / %v, want the one CPU entry", st.cpu, st.mem)
	}
	if p.covIndex.Candidates() != 1 {
		t.Fatalf("first ping: %d coverage candidates, want 1", p.covIndex.Candidates())
	}

	st.cpu[0].Vol = -1 // a copy would overwrite the mark
	p.pingTick()
	if st.cpu[0].Vol != -1 {
		t.Fatal("an unchanged pool was copied again")
	}
	n.MemPool.Put(1, 7, 64, 100)
	p.pingTick()
	if st.cpu[0].Vol != -1 || len(st.mem) != 1 {
		t.Fatalf("a change to the memory pool: snapshot %v / %v, want the CPU copy kept and the memory entry taken", st.cpu, st.mem)
	}
	n.CPUPool.Put(2, 8, 100, 50)
	p.pingTick()
	if len(st.cpu) != 2 || st.cpu[0].Vol != 500 {
		t.Fatalf("a change to the CPU pool: snapshot %v, want both entries freshly copied", st.cpu)
	}

	p.crashNode(0)
	if st.cpu != nil || st.mem != nil || p.covIndex.Candidates() != 1 {
		// The candidate entry goes at the next sweep; the summary is empty now.
		t.Fatalf("crash: snapshot %v / %v, %d candidates", st.cpu, st.mem, p.covIndex.Candidates())
	}
	p.pingTick() // down: no ping
	if st.cpu != nil {
		t.Fatal("a down node pinged")
	}
	p.recoverNode(0)
	n.CPUPool.Put(3, 9, 250, 60)
	p.pingTick()
	if len(st.cpu) != 1 || st.cpu[0].Vol != 250 {
		t.Fatalf("first ping after the repair: snapshot %v, want the new entry", st.cpu)
	}
}

// Only the coverage algorithm reads ping snapshots. Under any other
// algorithm no ping ticker is armed — harvesting or not — and the replay is
// the one a platform that pings regardless produces.
func TestNonCoverageAlgorithmsArmNoPing(t *testing.T) {
	set := trace.MultiSet(120, 5)
	cfgs := []Config{PresetDefault(MultiNode(), 5)}
	for _, algo := range []string{"Default", "RR", "JSQ"} {
		cfgs = append(cfgs, WithAlgorithm(PresetLibra(MultiNode(), 5), algo))
	}
	for _, cfg := range cfgs {
		quiet := replayObserved(t, sim.NewEngine(), cfg, set, false)
		pinged := replayObserved(t, sim.NewEngine(), cfg, set, true)
		if quiet.tickers != 0 {
			t.Errorf("%s (harvest %v): %d ping tickers armed, want none", cfg.Algorithm, cfg.Harvest, quiet.tickers)
		}
		if pinged.tickers != 1 {
			t.Fatalf("%s: the forced run armed %d ping tickers, want 1", cfg.Algorithm, pinged.tickers)
		}
		if !reflect.DeepEqual(quiet.result, pinged.result) || !reflect.DeepEqual(quiet.events, pinged.events) {
			t.Errorf("%s (harvest %v): the replay without pings differs from the one with them", cfg.Algorithm, cfg.Harvest)
		}
	}
	libra := replayObserved(t, sim.NewEngine(), PresetLibra(MultiNode(), 5), set, false)
	if libra.tickers != 1 {
		t.Errorf("Libra: %d ping tickers armed, want 1", libra.tickers)
	}
}
