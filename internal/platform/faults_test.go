package platform

import (
	"strings"
	"testing"

	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/sim"
	"libra/internal/trace"
)

// Config.Validate wraps the fault-schedule validation and its error names
// both the platform and the offending field.
func TestValidateRejectsBadFaultConfig(t *testing.T) {
	cfg := PresetLibra(SingleNode(), 1)
	cfg.Faults = faults.Config{CrashMTBF: -10}
	if _, err := New(sim.NewEngine(), cfg); err == nil {
		t.Fatal("negative CrashMTBF accepted")
	} else if !strings.Contains(err.Error(), "CrashMTBF") || !strings.Contains(err.Error(), cfg.Name) {
		t.Fatalf("error %q names neither field nor config", err)
	}
	cfg.Faults = faults.Config{StragglerFraction: 2}
	if _, err := New(sim.NewEngine(), cfg); err == nil || !strings.Contains(err.Error(), "StragglerFraction") {
		t.Fatalf("StragglerFraction=2: err = %v, want field-naming error", err)
	}
	cfg.Faults = faults.Config{CrashMTBF: 600, MTTR: 30, OOMKill: true, StragglerFraction: 0.1}
	if _, err := New(sim.NewEngine(), cfg); err != nil {
		t.Fatalf("valid fault schedule rejected: %v", err)
	}
}

// The §5.1 OOM retreat, observed at the dispatch layer: once a function
// has tripped the safeguard MemRetreatAfter times, its memory is no
// longer harvested — while CPU harvesting continues untouched.
func TestOOMRetreatStopsMemoryHarvest(t *testing.T) {
	set := trace.SingleSet(4)
	set.Invocations = set.Invocations[:100]
	p := mustNew(PresetLibra(SingleNode(), 4))
	for _, spec := range function.Apps() {
		p.appFor(spec).retreats = p.cfg.MemRetreatAfter // every app already retreated
	}
	r := p.Run(set)
	cpuHarvested := false
	for _, rec := range r.Records {
		if rec.Inv.MemReassignSec < -1e-9 {
			t.Fatalf("invocation %d had memory harvested (%.0f MB-s) despite retreat",
				rec.Inv.ID, rec.Inv.MemReassignSec)
		}
		if rec.Inv.CPUReassignSec < -1e-9 {
			cpuHarvested = true
		}
	}
	if !cpuHarvested {
		t.Fatal("memory retreat must not disable CPU harvesting")
	}
}

// A negative MemRetreatAfter disables the retreat: memory keeps being
// harvested no matter how many safeguard triggers are on record.
func TestOOMRetreatDisabledKeepsHarvesting(t *testing.T) {
	set := trace.SingleSet(4)
	set.Invocations = set.Invocations[:100]
	cfg := PresetLibra(SingleNode(), 4)
	cfg.MemRetreatAfter = -1
	p := mustNew(cfg)
	for _, spec := range function.Apps() {
		p.appFor(spec).retreats = 1000
	}
	r := p.Run(set)
	for _, rec := range r.Records {
		if rec.Inv.MemReassignSec < -1e-9 {
			return // memory harvesting still active, as required
		}
	}
	t.Fatal("no memory harvested although the retreat is disabled")
}

// Retreat state belongs to one platform instance: safeguard counts
// accumulate across an instance's invocations but reset on a fresh
// build, so a new run starts harvesting memory again.
func TestOOMRetreatResetsAcrossPlatforms(t *testing.T) {
	set := trace.SingleSet(4)
	cfg := PresetLibra(SingleNode(), 4)
	cfg.MemRetreatAfter = 1

	first := mustNew(cfg)
	r1 := first.Run(set)
	if r1.Safeguarded == 0 {
		t.Skip("trace produced no safeguard triggers; retreat path not exercised")
	}
	total := 0
	for _, a := range first.apps {
		total += a.retreats
	}
	if total != r1.Safeguarded {
		t.Fatalf("retreat counts sum %d != safeguarded %d (counts must accumulate per function)",
			total, r1.Safeguarded)
	}

	second := mustNew(cfg)
	if len(second.apps) != 0 {
		t.Fatalf("fresh platform starts with %d retreat counts", len(second.apps))
	}
	memHarvested := false
	for _, rec := range second.Run(set).Records {
		if rec.Inv.MemReassignSec < -1e-9 {
			memHarvested = true
			break
		}
	}
	if !memHarvested {
		t.Fatal("fresh platform never harvested memory — retreat state leaked across instances")
	}
}

// Property/invariant test: under randomized fault schedules, a node's
// committed resources never exceed its capacity (checked live throughout
// the run), every harvest loan is repaid or reconciled by the end, and
// every invocation is accounted for as completed or abandoned.
func TestFaultScheduleInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		cfg := PresetLibra(MultiNode(), seed)
		cfg.Faults = faults.Config{
			CrashMTBF:         120,
			MTTR:              15,
			OOMKill:           true,
			StragglerFraction: 0.2,
		}
		p := mustNew(cfg)
		// One-shot probes along the virtual timeline: Run schedules the
		// arrivals after these, so they interleave with the real events.
		for ti := 1; ti <= 120; ti++ {
			at := float64(ti)
			p.Engine().At(at, func() {
				for _, n := range p.Nodes() {
					if !n.Committed().Fits(n.Capacity()) {
						t.Errorf("seed %d t=%.0f: node %d committed %v exceeds capacity %v",
							seed, at, n.ID(), n.Committed(), n.Capacity())
					}
				}
			})
		}
		set := trace.MultiSet(60, seed)
		r := p.Run(set)
		if r.LeakedLoans != 0 {
			t.Errorf("seed %d: %d loan units leaked", seed, r.LeakedLoans)
		}
		if r.CapacityViolations != 0 {
			t.Errorf("seed %d: %d capacity violations at end of run", seed, r.CapacityViolations)
		}
		if got := len(r.Records) + r.Faults.Abandoned; got != len(set.Invocations) {
			t.Errorf("seed %d: %d completed + %d abandoned != %d invocations",
				seed, len(r.Records), r.Faults.Abandoned, len(set.Invocations))
		}
		for _, n := range p.Nodes() {
			if got := n.CPUPool.OutstandingLoans() + n.MemPool.OutstandingLoans(); got != 0 {
				t.Errorf("seed %d: node %d still has %d loan units outstanding", seed, n.ID(), got)
			}
		}
	}
}
