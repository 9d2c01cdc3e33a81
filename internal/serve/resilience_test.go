package serve_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"libra/internal/clock"
	"libra/internal/faults"
	"libra/internal/function"
	"libra/internal/platform"
	"libra/internal/serve"
)

// newAdmissionServer builds a manual-source server with the given
// admission config (and optional fault schedule) and starts it.
func newAdmissionServer(t *testing.T, adm serve.AdmissionConfig, flt faults.Config) *serve.Server {
	t.Helper()
	pc := platform.PresetLibra(platform.MultiNode(), 1)
	pc.Faults = flt
	srv, err := serve.New(serve.Config{
		Platform:     pc,
		Source:       clock.NewManualSource(),
		DrainTimeout: 20 * time.Second,
		Admission:    adm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// overload drives a bounded open-loop burst well beyond the pending
// budget and returns the generator.
func overload(t *testing.T, srv *serve.Server, rate, duration float64) *serve.LoadGen {
	t.Helper()
	lg, err := srv.StartLoad(serve.LoadGenConfig{
		App: testApp(t).Name, Rate: rate, Duration: duration, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-lg.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("load generator never finished under manual time")
	}
	return lg
}

// stopDrained stops the server and asserts a clean drain, returning the
// platform result and final stats.
func stopDrained(t *testing.T, srv *serve.Server) (*platform.Result, serve.Stats) {
	t.Helper()
	res, rep, err := srv.Stop(context.Background())
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if !rep.Drained {
		t.Fatalf("drain failed: %s", rep)
	}
	return res, srv.Snapshot()
}

// checkConservation asserts every admitted invocation left through
// exactly one exit and nothing is pending after a drained stop.
func checkConservation(t *testing.T, st serve.Stats) {
	t.Helper()
	if got := st.Completed + st.Abandoned + st.Expired; st.Ingested != got {
		t.Errorf("conservation broken: ingested %d != completed %d + abandoned %d + expired %d",
			st.Ingested, st.Completed, st.Abandoned, st.Expired)
	}
	if st.Pending != 0 {
		t.Errorf("pending = %d after drained stop, want 0", st.Pending)
	}
	if st.InFlight != 0 {
		t.Errorf("in flight = %d after drained stop, want 0", st.InFlight)
	}
}

// TestLoadGenShedsAtBudget checks overload degrades into shedding, not
// unbounded queue growth: the pending gauge never exceeds the budget,
// the excess is counted shed, and everything admitted still drains.
func TestLoadGenShedsAtBudget(t *testing.T) {
	const budget = 50
	srv := newAdmissionServer(t, serve.AdmissionConfig{MaxPending: budget}, faults.Config{})
	lg := overload(t, srv, 4000, 0.5)
	_, st := stopDrained(t, srv)

	if lg.Shed() == 0 {
		t.Fatal("overload shed nothing; budget never bound")
	}
	if st.Shed != lg.Shed() {
		t.Errorf("stats shed %d != generator shed %d", st.Shed, lg.Shed())
	}
	if st.PeakPending > budget {
		t.Errorf("peak pending %d exceeded budget %d", st.PeakPending, budget)
	}
	if st.Ingested != lg.Injected() {
		t.Errorf("ingested %d != injected %d", st.Ingested, lg.Injected())
	}
	checkConservation(t, st)
}

// TestDeadlineExpiresUnderOverload checks queued invocations past the
// admission deadline are dropped instead of executed late, and are
// accounted as expired — nowhere else.
func TestDeadlineExpiresUnderOverload(t *testing.T) {
	srv := newAdmissionServer(t, serve.AdmissionConfig{Deadline: 100 * time.Millisecond}, faults.Config{})
	overload(t, srv, 4000, 0.5)
	_, st := stopDrained(t, srv)

	if st.Expired == 0 {
		t.Fatal("no deadline expiries under overload; queueing delay should blow a 100ms deadline")
	}
	if st.Completed == 0 {
		t.Fatal("nothing completed; deadline should not starve everything")
	}
	checkConservation(t, st)
}

// TestDegradedModeEntersAndExits checks the backlog watermarks drive
// degraded mode: overload pushes the ready queue past DegradeHi (shed
// harvest acceleration), and the drain brings it back below DegradeLo.
func TestDegradedModeEntersAndExits(t *testing.T) {
	srv := newAdmissionServer(t, serve.AdmissionConfig{DegradeHi: 10, DegradeLo: 2}, faults.Config{})
	overload(t, srv, 4000, 0.5)
	_, st := stopDrained(t, srv)

	if st.DegradedEntries == 0 {
		t.Fatal("degraded mode never entered under overload")
	}
	if st.Degraded {
		t.Error("still degraded after a clean drain (ready queue is empty)")
	}
	if st.ReadyQueue != 0 {
		t.Errorf("ready queue = %d after drain, want 0", st.ReadyQueue)
	}
	checkConservation(t, st)
}

// TestChaosServeInvariants is the live-resilience acceptance test: with
// node crashes, OOM kills and stragglers injected on the wall driver,
// the server drains clean, every loan reconciles, no node exceeds
// capacity, and admitted work is conserved across the four exits.
func TestChaosServeInvariants(t *testing.T) {
	chaos := faults.Config{CrashMTBF: 5, MTTR: 1, OOMKill: true, StragglerFraction: 0.1}
	srv := newAdmissionServer(t, serve.AdmissionConfig{
		MaxPending: 200,
		Deadline:   2 * time.Second,
		DegradeHi:  50,
	}, chaos)
	lg := overload(t, srv, 2000, 0.5)
	res, st := stopDrained(t, srv)

	if res.Faults.Crashes == 0 {
		t.Fatal("chaos injected no crashes; the test exercises nothing")
	}
	if res.LeakedLoans != 0 {
		t.Errorf("leaked loans = %d, want 0", res.LeakedLoans)
	}
	if res.CapacityViolations != 0 {
		t.Errorf("capacity violations = %d, want 0", res.CapacityViolations)
	}
	if st.PeakPending > 200 {
		t.Errorf("peak pending %d exceeded budget 200", st.PeakPending)
	}
	if lg.Failed() != 0 {
		t.Errorf("%d ingests failed", lg.Failed())
	}
	checkConservation(t, st)
}

// TestStopRejectsNewWork checks phase one of the two-phase shutdown:
// once Stop has run, new invocations are refused with ErrDraining and
// counted shed.
func TestStopRejectsNewWork(t *testing.T) {
	srv := newTestServer(t, "")
	if _, rep, err := srv.Stop(context.Background()); err != nil || !rep.Drained {
		t.Fatalf("Stop: %v (report %s)", err, rep)
	}
	_, err := srv.Invoke(context.Background(), testApp(t).Name, function.Input{Size: 1, Seed: 1})
	if !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("Invoke after Stop: %v, want ErrDraining", err)
	}
	if srv.Shed() != 1 {
		t.Errorf("shed = %d, want 1", srv.Shed())
	}
}

// TestDrainReportClean pins the report fields of an idle shutdown.
func TestDrainReportClean(t *testing.T) {
	srv := newTestServer(t, "")
	_, rep, err := srv.Stop(context.Background())
	if err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if !rep.Drained || !rep.HTTPClean || rep.InFlightAtStop != 0 || rep.Remaining != 0 || rep.FailedWaiters != 0 {
		t.Fatalf("idle drain report: %+v", rep)
	}
}

// TestHostileQueriesAreRefusedAtTheDoor: a size or deadline that is not a
// finite positive number answers 400 before it claims an admission slot.
// Until PR 22 size=NaN answered 200 with an empty body, size=Inf never
// answered and held its slot until the drain timeout, and the two
// deadlines overflowed time.Duration into an instant 504. Server.Invoke,
// the handler's programmatic twin, refuses the same input.
func TestHostileQueriesAreRefusedAtTheDoor(t *testing.T) {
	srv := newTestServer(t, "127.0.0.1:0")
	app := testApp(t).Name
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, query := range []string{
		"size=NaN", "size=Inf", "size=-Inf", "size=0",
		"deadline_ms=NaN", "deadline_ms=1e300", "deadline_ms=Inf", "deadline_ms=1e-9",
		"nowait=1&size=Inf", "nowait=1&deadline_ms=NaN",
	} {
		resp, err := client.Post("http://"+srv.Addr()+"/invoke/"+app+"?"+query, "", nil)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %s, want 400", query, resp.Status)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, size := range []float64{math.Inf(1), math.NaN(), 0, -1} {
		if _, err := srv.Invoke(ctx, app, function.Input{Size: size, Seed: 1}); err == nil || ctx.Err() != nil {
			t.Errorf("Invoke with size %g: error %v, want a refusal", size, err)
		}
	}
	if got := srv.Pending(); got != 0 {
		t.Errorf("pending = %d after the refusals, want 0", got)
	}
	if got := srv.Ingested(); got != 0 {
		t.Errorf("ingested = %d, want 0", got)
	}
	stopDrained(t, srv)
}

// TestNowaitHonoursItsDeadline: ?deadline_ms= on an acknowledged invoke
// reaches the platform. The node holds one invocation at a time and the
// loop is held while three acknowledged invokes queue up behind each
// other, so the second is still queued when its millisecond has passed:
// it must leave through deadline_expired while its neighbours, which gave
// no deadline, complete. Until PR 22 the nowait branch validated the
// deadline and then ingested with the server's default.
func TestNowaitHonoursItsDeadline(t *testing.T) {
	spec := testApp(t)
	tb := platform.Testbed{Nodes: 1, NodeCap: spec.UserAlloc, Schedulers: 1}
	srv, err := serve.New(serve.Config{
		Platform:     platform.PresetDefault(tb, 1),
		Addr:         "127.0.0.1:0",
		Source:       clock.NewManualSource(),
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	srv.Driver().Submit(func() {
		close(held)
		<-release
	})
	<-held
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for _, query := range []string{"nowait=1", "nowait=1&deadline_ms=1", "nowait=1"} {
		resp, err := client.Post("http://"+srv.Addr()+"/invoke/"+spec.Name+"?"+query, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: status %s, want 202", query, resp.Status)
		}
	}
	close(release)
	_, st := stopDrained(t, srv)
	if st.Expired != 1 || st.Completed != 2 {
		t.Errorf("expired %d, completed %d; want the deadline-bearing invoke expired and the other two completed", st.Expired, st.Completed)
	}
	checkConservation(t, st)
}
