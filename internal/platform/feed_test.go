package platform

import (
	"reflect"
	"testing"

	"libra/internal/clock"
	"libra/internal/obs"
	"libra/internal/sim"
	"libra/internal/trace"
)

// With arrivals on the engine's feed lane the heap holds in-flight work
// only — completions, timers, pickups, tickers — instead of the whole
// trace. Scheduled one At per arrival the high-water mark was the trace
// length; fed, it is a few hundred at the figs2 operating point.
func TestRunKeepsArrivalsOutOfTheHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-invocation replays")
	}
	set := trace.JetstreamSet(20000, 750, 42)
	for _, cfg := range []Config{
		PresetLibra(Jetstream(50, 4), 42),
		PresetDefault(Jetstream(50, 4), 42),
	} {
		p := mustNew(cfg)
		r := p.Run(set)
		if len(r.Records) != len(set.Invocations) {
			t.Fatalf("%s: %d of %d invocations completed", cfg.Name, len(r.Records), len(set.Invocations))
		}
		if got, limit := p.Engine().MaxQueueLen(), len(set.Invocations)/10; got >= limit {
			t.Errorf("%s: MaxQueueLen = %d, want < %d: arrivals are back in the heap", cfg.Name, got, limit)
		}
	}
}

// The worst case for the feed's ordering contract: every arrival at
// t = 0, so the order at that instant rests on sequence numbers alone.
// Two markers share the instant: one scheduled before Run, which must
// fire ahead of the whole burst, and one that marker schedules while
// the run is under way, which must fire behind all of it. The fed run
// must equal, record for record and event for event, the run that
// schedules each arrival with At.
func TestConcurrentBurstFeedMatchesAt(t *testing.T) {
	set := trace.ConcurrentBurst(2000, 5)
	type rec struct {
		id                      int64
		arrival                 float64
		latency, tUser, speedup float64
	}
	run := func(clk clock.Clock) ([]rec, *Result, []obs.Event) {
		tr := obs.NewRecorder()
		cfg := PresetLibra(Jetstream(50, 4), 5)
		cfg.Tracer = tr
		p, err := New(clk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mark := func(name string) {
			tr.Record(obs.Event{T: clk.Now(), Inv: -1, Kind: obs.KindArrival, Node: -1, App: name})
		}
		clk.At(0, func() {
			mark("before the burst")
			clk.At(0, func() { mark("after the burst") })
		})
		r := p.Run(set)
		recs := make([]rec, len(r.Records))
		for i, rr := range r.Records {
			recs[i] = rec{int64(rr.Inv.ID), rr.Inv.Arrival, rr.Latency, rr.TUser, rr.Speedup}
		}
		return recs, r, tr.Events()
	}
	fed := sim.NewEngine()
	fedRecs, fedRes, fedEvents := run(fed)
	// Embedding only clock.Runner hides the engine's Feed, so clock.Feed
	// falls back to one At per arrival.
	plain := sim.NewEngine()
	atRecs, atRes, atEvents := run(struct{ clock.Runner }{plain})

	if len(fedRecs) != len(set.Invocations) || len(atRecs) != len(set.Invocations) {
		t.Fatalf("%d fed and %d scheduled of %d invocations completed", len(fedRecs), len(atRecs), len(set.Invocations))
	}
	for i := range atRecs {
		if fedRecs[i] != atRecs[i] {
			t.Fatalf("record %d diverges:\n At:   %+v\n Feed: %+v", i, atRecs[i], fedRecs[i])
		}
	}
	if fedRes.CompletionTime != atRes.CompletionTime || !reflect.DeepEqual(fedRes.Samples, atRes.Samples) {
		t.Fatalf("completion time or utilization samples diverge: %g vs %g", fedRes.CompletionTime, atRes.CompletionTime)
	}
	if !reflect.DeepEqual(fedEvents, atEvents) {
		for i := 0; i < len(atEvents) && i < len(fedEvents); i++ {
			if !reflect.DeepEqual(fedEvents[i], atEvents[i]) {
				t.Fatalf("traces diverge at event %d:\n At:   %+v\n Feed: %+v", i, atEvents[i], fedEvents[i])
			}
		}
		t.Fatalf("trace lengths diverge: %d vs %d", len(atEvents), len(fedEvents))
	}
	if n := len(set.Invocations); fedEvents[0].App != "before the burst" || fedEvents[2*n+1].App != "after the burst" {
		t.Fatalf("markers out of place: event 0 is %+v, event %d is %+v", fedEvents[0], 2*n+1, fedEvents[2*n+1])
	}
	if fed.Fired() != plain.Fired() {
		t.Fatalf("fired %d events fed, %d scheduled", fed.Fired(), plain.Fired())
	}
}
