package cluster

import (
	"testing"

	"libra/internal/function"
	"libra/internal/resources"
	"libra/internal/sim"
)

func TestWarmContainerTTLEviction(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(eng)
	n.SetWarmTTL(5)
	dh := testApp(t, "DH")

	first := mkInv(1, dh, resources.Cores(2), 256, 1)
	n.Start(first, StartOptions{OwnAlloc: first.UserAlloc})
	eng.Run() // completes at ~1.35; warm container expires at ~6.35

	if n.WarmContainers("DH") != 1 {
		t.Fatal("container not parked warm")
	}

	// Within the TTL: reuse.
	eng.RunUntil(3)
	second := mkInv(2, dh, resources.Cores(2), 256, 1)
	n.Start(second, StartOptions{OwnAlloc: second.UserAlloc})
	eng.Run()
	if second.ColdStart {
		t.Fatal("reuse within TTL cold-started")
	}

	// Past the TTL: evicted, cold start again.
	eng.RunUntil(second.End + 10)
	third := mkInv(3, dh, resources.Cores(2), 256, 1)
	n.Start(third, StartOptions{OwnAlloc: third.UserAlloc})
	eng.Run()
	if !third.ColdStart {
		t.Fatal("expired warm container was reused")
	}
	if n.Evictions() == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestWarmTTLZeroDisablesReuse(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(eng)
	n.SetWarmTTL(0)
	dh := testApp(t, "DH")
	for i := int64(1); i <= 3; i++ {
		inv := mkInv(i, dh, resources.Cores(2), 256, 0.5)
		n.Start(inv, StartOptions{OwnAlloc: inv.UserAlloc})
		eng.Run()
		if !inv.ColdStart {
			t.Fatalf("invocation %d reused a container with TTL 0", i)
		}
	}
}

func TestWarmLIFOClaimsFreshest(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(eng)
	n.SetWarmTTL(10)
	dh := testApp(t, "DH")

	// Two containers parked at different times: a runs long so b cannot
	// reuse its container and must create a second one.
	a := mkInv(1, dh, resources.Cores(1), 128, 5)
	n.Start(a, StartOptions{OwnAlloc: resources.Vector{CPU: 1000, Mem: 128}})
	eng.RunUntil(1)
	b := mkInv(2, dh, resources.Cores(1), 128, 1)
	n.Start(b, StartOptions{OwnAlloc: resources.Vector{CPU: 1000, Mem: 128}})
	eng.Run()
	if n.WarmContainers("DH") != 2 {
		t.Fatalf("warm = %d, want 2", n.WarmContainers("DH"))
	}

	// At t = 13, the older container (expires ≈11.35) is gone, the newer
	// one (expires ≈15.x) still serves.
	eng.RunUntil(13)
	c := mkInv(3, dh, resources.Cores(1), 128, 1)
	n.Start(c, StartOptions{OwnAlloc: resources.Vector{CPU: 1000, Mem: 128}})
	eng.Run()
	if c.ColdStart {
		t.Fatal("live warm container not claimed")
	}
	if n.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1 (the older container)", n.Evictions())
	}
}

// WarmFor is the decision Start makes: whatever it reports just before a
// Start is what the Start does — per application, after evictions, and
// also once warm reuse is switched off with containers still parked (where
// a count of the parked list alone would say warm and Start would go cold).
func TestWarmForIsStartsDecision(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(eng)
	n.SetWarmTTL(5)
	dh, vp := testApp(t, "DH"), testApp(t, "VP")

	id := int64(0)
	startAgrees := func(app *function.Spec) {
		t.Helper()
		id++
		warm := n.WarmFor(app)
		if byName := n.WarmContainers(app.Name); byName != warm {
			t.Fatalf("%s: WarmContainers = %d, WarmFor = %d", app.Name, byName, warm)
		}
		inv := mkInv(id, app, resources.Cores(1), 128, 1)
		n.Start(inv, StartOptions{OwnAlloc: inv.UserAlloc})
		if inv.ColdStart != (warm == 0) {
			t.Fatalf("%s at %v: WarmFor = %d, Start cold = %v", app.Name, eng.Now(), warm, inv.ColdStart)
		}
		eng.Run()
	}
	startAgrees(dh) // nothing parked: cold
	startAgrees(dh) // the first one's container: warm
	startAgrees(vp) // another application's containers do not count: cold
	eng.RunUntil(eng.Now() + 10)
	startAgrees(dh) // evicted: cold
	n.SetWarmTTL(0)
	startAgrees(dh) // parked, but reuse is off: cold
}
