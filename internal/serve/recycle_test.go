package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"libra/internal/clock"
	"libra/internal/function"
	"libra/internal/platform"
)

// TestWaiterRecordSurvivesRecycling holds the server to its half of
// platform.ServeHooks.Done's contract: the platform fills a completed
// invocation's record in again for a later arrival, so what Invoke hands
// its caller must be a copy. A hundred callers keep their InvRecord while
// fifty thousand generator invocations go through the same server — about
// a hundred in flight at a time, so every recycled record is rewritten
// hundreds of times — and each kept record must still describe its own
// invocation. Under -race a record shared with the loop is also a
// reported race: the loop rewrites it with nothing ordering that against
// the caller's reads.
func TestWaiterRecordSurvivesRecycling(t *testing.T) {
	if err := registerWake(); err != nil {
		t.Fatal(err)
	}
	pc := platform.PresetLibra(platform.MultiNode(), 1)
	pc.DispatchTime = 2e-5
	srv, err := New(Config{Platform: pc, Source: clock.NewManualSource(), DrainTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	type held struct {
		rec     platform.InvRecord
		id      int64
		in      function.Input
		latency float64
	}
	const callers, perCaller = 4, 25
	var (
		mu   sync.Mutex
		kept []held
		wg   sync.WaitGroup
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				in := function.Input{Size: 1, Seed: uint64(1000*c + i)}
				rec, err := srv.Invoke(context.Background(), "WAKE", in)
				if err != nil {
					t.Errorf("Invoke: %v", err)
					return
				}
				mu.Lock()
				kept = append(kept, held{rec: rec, id: int64(rec.Inv.ID), in: in, latency: rec.Latency})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(kept) != callers*perCaller {
		t.Fatalf("%d of %d invokes returned a record", len(kept), callers*perCaller)
	}

	lg, err := srv.StartLoad(LoadGenConfig{App: "WAKE", Rate: 2000, Duration: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-lg.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("load generator never finished under manual time")
	}
	if _, rep, err := srv.Stop(context.Background()); err != nil || !rep.Drained {
		t.Fatalf("Stop: %v (report %s)", err, rep)
	}
	if got := srv.Completed(); got != int64(len(kept))+lg.Injected() || lg.Injected() != 50_000 {
		t.Fatalf("completed %d with %d generated and %d invoked, want 50000 generated and all completed", got, lg.Injected(), len(kept))
	}

	seen := make(map[int64]bool, len(kept))
	for _, h := range kept {
		inv := h.rec.Inv
		if seen[h.id] {
			t.Errorf("two callers were handed invocation %d", h.id)
		}
		seen[h.id] = true
		if int64(inv.ID) != h.id || inv.Input != h.in || inv.End-inv.Arrival != h.latency {
			t.Errorf("record of invocation %d (input %+v, latency %g) now reads ID %d, input %+v, End-Arrival %g",
				h.id, h.in, h.latency, inv.ID, inv.Input, inv.End-inv.Arrival)
		}
	}
}
