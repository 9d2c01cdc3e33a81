package simtest_test

import (
	"runtime"
	"testing"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/core"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/sim"
	"libra/internal/simtest"
	"libra/internal/trace"
)

// serialNoFeed is the serial engine with its Feed hidden: the struct
// embeds only clock.Runner, so clock.Feed takes its fallback and every
// arrival is one At call. Replaying it against Serial pins the engine's
// feed lane to the At path it is defined by — and is the fallback's own
// coverage, which the wall driver, the sharded engine and any wrapping
// Runner still run.
func serialNoFeed() simtest.EngineFactory {
	return simtest.EngineFactory{
		Name: "serial-nofeed",
		New:  func() clock.Clock { return struct{ clock.Runner }{sim.NewEngine()} },
	}
}

// TestShardedMatchesSerialMatrix is the acceptance matrix for the
// sharded engine: every (variant × seed × faults × autoscale) cell must
// replay byte-identically — report and full lifecycle trace — on the
// serial engine (arrivals fed, and arrivals scheduled one by one) and on
// the sharded engine at several lane counts. Under
// -short only one representative cell per variant runs (the fully-loaded
// one: faults on, autoscale on); the CI parallel-equiv job runs the full
// cross product under -race.
func TestShardedMatchesSerialMatrix(t *testing.T) {
	chaos := faults.Config{CrashMTBF: 40, MTTR: 5, OOMKill: true, StragglerFraction: 0.1}
	elastic := platform.AutoscaleConfig{
		Group:    cluster.NodeGroup{Name: "matrix", Max: 6},
		Cooldown: 2,
	}
	m := simtest.Matrix{
		Variants: []core.Variant{core.VariantDefault, core.VariantFreyr, core.VariantLibra, core.VariantLibraNSP},
		Seeds:    []int64{3, 17, 29},
		Faults: []simtest.FaultAxis{
			{Name: "nofaults"},
			{Name: "chaos", Config: core.Config{Faults: chaos}},
		},
		Autoscale: []simtest.AutoscaleAxis{
			{Name: "static"},
			{Name: "elastic", Config: core.Config{Autoscale: elastic}},
		},
		Testbed: core.TestbedMultiNode,
		Workload: func(v core.Variant, seed int64) trace.Set {
			return trace.Generate("matrix-"+string(v), function.Apps(), 100, 240, seed)
		},
	}
	if testing.Short() {
		m.Seeds = m.Seeds[:1]
		m.Faults = m.Faults[1:]
		m.Autoscale = m.Autoscale[1:]
	}

	lanes := runtime.GOMAXPROCS(0)
	if lanes < 3 {
		lanes = 3
	}
	m.Run(t, simtest.Serial(), serialNoFeed(), simtest.ShardedLanes(2), simtest.ShardedLanes(lanes))
}
