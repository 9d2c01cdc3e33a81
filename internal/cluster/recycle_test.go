package cluster

import (
	"math"
	"testing"
	"unsafe"

	"libra/internal/function"
	"libra/internal/harvest"
	"libra/internal/resources"
	"libra/internal/sim"
)

// An exec record's callbacks are closures over the record, bound in its
// first life, so an event left pending when the record is recycled would
// fire into whichever invocation holds it next. This walks both ways a
// record is recycled with events still parked — a node crash (init,
// completion, safeguard and OOM events armed) and an OOM kill (completion
// armed) — has the freed records taken up at once by invocations that
// live across every instant a stale event would have fired at, and
// checks that each of those completes exactly once, at the instant its
// own allocation predicts, with the pools reconciled and the incremental
// usage aggregates equal to a rescan after every event.
func TestRecycledExecNeverSeesStaleCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	n := newTestNode(eng)
	dh, vp, ir := testApp(t, "DH"), testApp(t, "VP"), testApp(t, "IR")

	eng.SetPostStep(func() {
		usage, alloc := n.RecomputeUsage()
		if usage != n.UsageNow() || alloc != n.AllocatedNow() {
			t.Fatalf("t=%g: aggregates (%v, %v) drifted from rescan (%v, %v)",
				eng.Now(), n.UsageNow(), n.AllocatedNow(), usage, alloc)
		}
	})
	completions := map[harvest.ID]int{}
	n.OnComplete = func(inv *Invocation) { completions[inv.ID]++ }

	// want maps an invocation to the instant it must finish at: every
	// invocation checked below is given an allocation that covers its
	// demand, so it runs at rate 1 whatever it borrows or loses.
	want := map[*Invocation]float64{}
	start := func(inv *Invocation, opts StartOptions) *Invocation {
		if function.Rate(opts.OwnAlloc, inv.Actual) != 1 {
			t.Fatalf("setup: invocation %d does not run at rate 1 under its own allocation", inv.ID)
		}
		n.Start(inv, opts)
		w := eng.Now() + inv.Actual.Duration
		if inv.ColdStart {
			w += inv.App.ColdStart
		}
		want[inv] = w
		return inv
	}
	records := func() map[*exec]bool {
		set := map[*exec]bool{}
		for _, e := range n.running {
			set[e] = true
		}
		return set
	}
	recordOf := func(inv *Invocation) *exec {
		for _, e := range n.running {
			if e.inv == inv {
				return e
			}
		}
		return nil
	}
	full := func(inv *Invocation) StartOptions { return StartOptions{OwnAlloc: inv.UserAlloc} }

	// Wave A, to be crashed. A harvested source with its safeguard window
	// and OOM check far out, a borrower holding its units, and a third
	// still in container init at the crash.
	src := mkInv(1, dh, resources.Cores(1), 700, 20)
	n.Start(src, StartOptions{
		OwnAlloc:           resources.Vector{CPU: resources.Cores(1), Mem: 256},
		HarvestExpiry:      60,
		SafeguardThreshold: 0.8,
		MonitorWindow:      5, // fires at 5.35
		OOMDelay:           8, // fires at 8.35
	})
	borrower := mkInv(2, vp, resources.Cores(2), 256, 10) // finishes at 10.8
	n.Start(borrower, StartOptions{
		OwnAlloc:  borrower.UserAlloc,
		ExtraWant: resources.Vector{CPU: resources.Cores(4), Mem: 256},
	})
	eng.RunUntil(1.5)
	initing := mkInv(3, ir, resources.Cores(1), 256, 5) // init ends at 2.6
	n.Start(initing, full(initing))
	eng.RunUntil(2)
	if got := n.CPUPool.OutstandingLoans() + n.MemPool.OutstandingLoans(); got == 0 {
		t.Fatal("setup: no loan outstanding at the crash")
	}
	if got := eng.Pending(); got != 5 {
		t.Fatalf("setup: %d events parked at the crash, want 5 (init, 2 completions, safeguard, OOM)", got)
	}
	crashed := records()

	if got := len(n.Crash()); got != 3 {
		t.Fatalf("Crash aborted %d invocations, want 3", got)
	}
	if got := eng.Pending(); got != 0 {
		t.Fatalf("%d events survive the crash", got)
	}
	n.Recover()

	// Wave B takes the three records straight back and lives across
	// 2.6, 5.35, 8.35, 10.8 and the source's old finish near 33.4.
	b1 := start(mkInv(11, dh, 500, 200, 40), StartOptions{
		OwnAlloc:           resources.Vector{CPU: resources.Cores(1), Mem: 256},
		HarvestExpiry:      50,
		SafeguardThreshold: 0.8,
		MonitorWindow:      0.1,
	})
	b2 := mkInv(12, vp, resources.Cores(2), 256, 12)
	start(b2, StartOptions{OwnAlloc: b2.UserAlloc, ExtraWant: resources.Vector{CPU: resources.Cores(2)}})
	b3 := mkInv(13, ir, resources.Cores(1), 256, 5)
	start(b3, full(b3))
	for e := range records() {
		if !crashed[e] {
			t.Fatal("an invocation started after the crash did not reuse a crashed record")
		}
	}
	eng.RunUntil(50)
	if b1.Safeguard || !b2.Accelerate {
		t.Fatalf("wave B: safeguard=%v on the source, accelerate=%v on the borrower", b1.Safeguard, b2.Accelerate)
	}

	// The OOM kill: the source's memory peak overruns its allocation while
	// the harvested remainder is on loan. Its record goes to the invocation
	// started from the failure callback, which outlives the killed
	// source's completion (armed for about 83.07).
	killed := mkInv(21, dh, resources.Cores(1), 700, 20)
	n.Start(killed, StartOptions{
		OwnAlloc:      resources.Vector{CPU: resources.Cores(1), Mem: 256},
		HarvestExpiry: 100,
		OOMDelay:      3,
	})
	c2 := mkInv(22, vp, resources.Cores(1), 256, 10)
	start(c2, StartOptions{OwnAlloc: c2.UserAlloc, ExtraWant: resources.Vector{Mem: 512}})
	victim := recordOf(killed)
	var heir *Invocation
	n.OnFailure = func(inv *Invocation, kind FailureKind) {
		if inv != killed || kind != FailOOM {
			t.Fatalf("unexpected failure: invocation %d, %v", inv.ID, kind)
		}
		heir = mkInv(23, dh, resources.Cores(1), 256, 40)
		start(heir, full(heir))
		if recordOf(heir) != victim {
			t.Fatal("the invocation started at the OOM kill did not reuse the killed record")
		}
	}
	eng.Run()
	if heir == nil {
		t.Fatal("the OOM kill never happened")
	}

	for inv, w := range want {
		if completions[inv.ID] != 1 {
			t.Errorf("invocation %d completed %d times", inv.ID, completions[inv.ID])
		}
		if math.Abs(inv.End-w) > 1e-9 {
			t.Errorf("invocation %d finished at %g, its allocation predicts %g", inv.ID, inv.End, w)
		}
	}
	for _, inv := range []*Invocation{src, borrower, initing, killed} {
		if completions[inv.ID] != 0 || inv.End != 0 {
			t.Errorf("aborted invocation %d completed (%d times, End=%g)", inv.ID, completions[inv.ID], inv.End)
		}
	}
	if got := n.CPUPool.OutstandingLoans() + n.MemPool.OutstandingLoans(); got != 0 {
		t.Fatalf("%d loan units leaked", got)
	}
	if n.Running() != 0 || !n.Committed().IsZero() || eng.Pending() != 0 {
		t.Fatalf("running=%d committed=%v pending=%d at the end", n.Running(), n.Committed(), eng.Pending())
	}
}

// One Invocation is allocated per request and kept for the whole replay,
// one exec record per concurrently running invocation: a field that pushes
// either into the next allocator size class costs every run its share of
// memory (Invocation: 208 → 224 bytes read +4% peak RSS on the live
// benchmark). New state goes into the padding, or something else goes.
func TestRecordSizeClasses(t *testing.T) {
	if got := unsafe.Sizeof(Invocation{}); got > 208 {
		t.Errorf("Invocation is %d bytes, over the 208-byte size class", got)
	}
	if got := unsafe.Sizeof(exec{}); got > 208 {
		t.Errorf("exec is %d bytes, over the 208-byte size class", got)
	}
}
