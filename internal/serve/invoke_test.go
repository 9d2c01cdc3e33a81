package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"libra/internal/clock"
	"libra/internal/function"
	"libra/internal/histogram"
	"libra/internal/platform"
)

// refInputFromQuery is the parse the invoke handler used until PR 22,
// kept as the reference parseInvokeQuery is fuzzed against.
func refInputFromQuery(spec *function.Spec, r *http.Request) (function.Input, error) {
	lo, _ := spec.SizeRange()
	in := function.Input{Size: lo, Seed: uint64(time.Now().UnixNano())}
	q := r.URL.Query()
	if v := q.Get("size"); v != "" {
		size, err := strconv.ParseFloat(v, 64)
		if err != nil || size <= 0 {
			return in, fmt.Errorf("bad size %q", v)
		}
		in.Size = size
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return in, fmt.Errorf("bad seed %q", v)
		}
		in.Seed = seed
	}
	return in, nil
}

// refQuery is what the old handler read from a request: three parses of
// the query, one per question.
type refQuery struct {
	in         function.Input
	seeded     bool
	deadlineMs float64 // 0: none given
	nowait     bool
}

func refInvokeQuery(spec *function.Spec, raw string) (refQuery, error) {
	r := &http.Request{URL: &url.URL{RawQuery: raw}}
	in, err := refInputFromQuery(spec, r)
	if err != nil {
		return refQuery{}, err
	}
	q := refQuery{in: in, seeded: r.URL.Query().Get("seed") != ""}
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms <= 0 {
			return q, fmt.Errorf("bad deadline_ms %q", v)
		}
		q.deadlineMs = ms
	}
	q.nowait = r.URL.Query().Get("nowait") != ""
	return q, nil
}

// hostile reports whether the old handler accepted something it should
// not have: a size the models cannot finish, or a deadline that is not a
// time.Duration of at least a nanosecond. These are the only queries on
// which parseInvokeQuery may differ from the reference, by refusing.
func (q refQuery) hostile() bool {
	if math.IsNaN(q.in.Size) || math.IsInf(q.in.Size, 0) {
		return true
	}
	if q.deadlineMs == 0 {
		return false
	}
	ns := q.deadlineMs * float64(time.Millisecond)
	return math.IsNaN(ns) || ns >= 1<<63 || time.Duration(ns) < 1
}

func checkAgainstReference(t *testing.T, spec *function.Spec, raw string) {
	t.Helper()
	want, wantErr := refInvokeQuery(spec, raw)
	got, err := parseInvokeQuery(spec, raw)
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("query %q: got error %v, the reference refuses with %v", raw, err, wantErr)
		}
	case want.hostile():
		if err == nil {
			t.Fatalf("query %q: accepted with size %g, deadline %v", raw, got.in.Size, got.deadline)
		}
	case err != nil:
		t.Fatalf("query %q: refused with %v, the reference accepts", raw, err)
	default:
		if got.in.Size != want.in.Size || (want.seeded && got.in.Seed != want.in.Seed) {
			t.Fatalf("query %q: input %+v, reference %+v", raw, got.in, want.in)
		}
		if d := time.Duration(want.deadlineMs * float64(time.Millisecond)); got.deadline != d {
			t.Fatalf("query %q: deadline %v, reference %v", raw, got.deadline, d)
		}
		if got.nowait != want.nowait {
			t.Fatalf("query %q: nowait %v, reference %v", raw, got.nowait, want.nowait)
		}
	}
}

// FuzzInvokeQuery holds the one-pass parser to url.ParseQuery plus the
// old handler's reading of it, on arbitrary raw queries.
func FuzzInvokeQuery(f *testing.F) {
	for _, raw := range []string{
		"", "size=4000", "size=1&seed=7&nowait=1", "size=1&nowait=1&seed=18446744073709551615",
		"size=1&size=2", "size=&size=2", "seed=1&seed=x", "nowait=&nowait=1", "nowait=", "nowait=0",
		"size=%31", "s%69ze=3", "size=1%2", "si%zze=1&size=2", "size=%zz&size=5", "size=1+2", "size=+5", "seed=+5",
		"size=1;seed=2", "size=1;x&size=3", "a;b&nowait=1", "&&size=2&&", "=5&size=2", "size", "size=1=2",
		"size=NaN", "size=Inf", "size=-Inf", "size=+Inf", "size=infinity", "size=-1", "size=0", "size=1e400", "size=0x1p-2",
		"deadline_ms=250", "deadline_ms=NaN", "deadline_ms=Inf", "deadline_ms=1e300", "deadline_ms=9223372036854.775807",
		"deadline_ms=9223372036854.7", "deadline_ms=1e-7", "deadline_ms=1e-6", "deadline_ms=-5", "deadline_ms=0",
		"deadline_ms=5&nowait=1", "deadline%5Fms=5", "seed=-1", "seed=1.5", "seed=banana&size=banana",
		"size=" + strings.Repeat("9", 64<<10), "nowait=" + strings.Repeat("%41", 20000),
	} {
		f.Add(raw)
	}
	spec := function.Apps()[0]
	f.Fuzz(func(t *testing.T, raw string) { checkAgainstReference(t, spec, raw) })
}

// decodeReply reads an invoke reply back, refusing anything after the
// object.
func decodeReply(t *testing.T, b []byte) invokeResponse {
	t.Helper()
	var out invokeResponse
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("reply %q does not decode: %v", b, err)
	}
	if dec.More() {
		t.Fatalf("reply %q holds more than one value", b)
	}
	return out
}

// TestInvokeReplyRoundTrips holds the hand-written reply to what
// encoding/json writes for the same invokeResponse (writeJSON, still the
// writer of /stats and /registry): both decode to the same struct, over
// floats drawn from the whole bit space, and a non-finite float gets no
// reply at all.
func TestInvokeReplyRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return rng.NormFloat64() * 50 // what a latency in ms looks like
		case 2:
			return float64(rng.Int63n(1 << 53)) // whole numbers, up to where 'f' is long
		default:
			return math.Float64frombits(rng.Uint64())
		}
	}
	apps := []string{"DH", "SYN", "", `a"b\c`, "naïve", "tab\there", "<&>", "bad\xffutf8", strings.Repeat("x", 4<<10)}
	for i := 0; i < 20000; i++ {
		resp := invokeResponse{
			ID: rng.Int63() - rng.Int63(), App: apps[rng.Intn(len(apps))],
			LatencyMs: float(), Speedup: float(), Node: rng.Intn(5) - 1,
			ColdStart: rng.Intn(2) == 0, Accepted: rng.Intn(2) == 0,
		}
		got, ok := appendInvokeResponse(nil, resp)
		if !finite(resp.LatencyMs) || !finite(resp.Speedup) {
			if ok {
				t.Fatalf("%+v: a non-finite float was written: %q", resp, got)
			}
			continue
		}
		if !ok {
			t.Fatalf("%+v: refused", resp)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, resp)
		want := decodeReply(t, rec.Body.Bytes())
		if out := decodeReply(t, got); out != want {
			t.Fatalf("%+v: wrote %q, which decodes to %+v; encoding/json's decodes to %+v", resp, got, out, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, resp := range []invokeResponse{{ID: 1, App: "DH", LatencyMs: bad}, {ID: 1, App: "DH", Speedup: bad}} {
			rec := httptest.NewRecorder()
			writeInvokeResponse(rec, http.StatusOK, resp)
			if rec.Code != http.StatusInternalServerError || json.Valid(rec.Body.Bytes()) {
				t.Errorf("%+v: answered %d %q, want a 500 and no JSON", resp, rec.Code, rec.Body)
			}
		}
	}
}

// nullWriter is a ResponseWriter that keeps nothing, so that what
// AllocsPerRun counts is the handler's.
type nullWriter struct{ h http.Header }

func (w nullWriter) Header() http.Header       { return w.h }
func (nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nullWriter) WriteHeader(int)             {}

// TestInvokeHandlerAllocs pins what one acknowledged invoke allocates
// between the mux and the loop: the Submit closure, and on the loop the
// platform's one record per ingest (platform/allocs_test.go pins the
// replay side of that). It was 22 when the handler parsed the query three
// times and answered through encoding/json.
func TestInvokeHandlerAllocs(t *testing.T) {
	srv, err := New(Config{
		Platform:     platform.PresetDefault(platform.MultiNode(), 1),
		Source:       clock.NewManualSource(),
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	spec := function.Apps()[0]
	lo, _ := spec.SizeRange()
	req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/invoke/%s?size=%g&nowait=1&seed=7", spec.Name, lo), nil)
	req.SetPathValue("fn", spec.Name)
	w := nullWriter{h: http.Header{}}
	quiesce := func() {
		for deadline := time.Now().Add(10 * time.Second); srv.Pending() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d invocations still pending", srv.Pending())
			}
		}
	}
	for range 200 { // fill the record pools, the reply pool and the loop's free list
		srv.handleInvoke(w, req)
	}
	quiesce()
	avg := testing.AllocsPerRun(1000, func() { srv.handleInvoke(w, req) })
	quiesce()
	if _, rep, err := srv.Stop(context.Background()); err != nil || !rep.Drained {
		t.Fatalf("Stop: %v (report %s)", err, rep)
	}
	if srv.Completed() != 1201 { // AllocsPerRun makes one warm-up call
		t.Fatalf("completed %d of 1201 acknowledged invokes", srv.Completed())
	}
	t.Logf("%.2f allocations per acknowledged invoke", avg)
	if avg > 4 {
		t.Errorf("an acknowledged invoke allocates %.2f times, want at most 4", avg)
	}
}

var registerWake = sync.OnceValue(func() error {
	return function.Register(function.Synthetic("WAKE", 100, 64, 0.001, 0))
})

// BenchmarkIngressWakeUnderIdleDriver is the finding behind
// clock.yieldGap in one command: how long a request that arrives at an
// idle server sits in its loopback socket before its handler starts,
// while the driver's loop spins toward its next event. The server's
// driver carries a 1 kHz no-op ticker, so the loop is always inside
// spinMargin of an event; one keep-alive connection sends an acknowledged
// invoke after 10–20 ms of quiet. Reported: client → handler p50 and p90
// in µs. Without other load the damage of a too-frequent yield shows in
// the tail (on the 2-vCPU recording host, 200 requests a run: p50 138–145,
// p90 2 890–2 970 µs when the spin yielded every eighth poll; 119–133 and
// 187–199 µs at the 20 µs gap); under live-http's 40 k req/s it is in the
// median. Not a gate: run it with -benchtime 200x.
func BenchmarkIngressWakeUnderIdleDriver(b *testing.B) {
	if err := registerWake(); err != nil {
		b.Fatal(err)
	}
	pc := platform.PresetDefault(platform.MultiNode(), 1)
	pc.DispatchTime = 2e-5
	srv, err := New(Config{Platform: pc, DrainTimeout: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	srv.drv.Submit(func() { clock.Every(srv.drv, 1e-3, func() {}) })

	// The server's own route, with a timestamp in front of the handler.
	epoch := time.Now()
	var started atomic.Int64 // ns since epoch at which the last handler began
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke/{fn}", func(w http.ResponseWriter, r *http.Request) {
		started.Store(int64(time.Since(epoch)))
		srv.handleInvoke(w, r)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	target := "http://" + ln.Addr().String() + "/invoke/WAKE?nowait=1"
	post := func() time.Duration {
		sent := time.Since(epoch)
		resp, err := client.Post(target, "", nil)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("status %s", resp.Status)
		}
		return sent
	}
	post() // dial

	rng := rand.New(rand.NewSource(1))
	waits := make([]float64, 0, b.N)
	b.ResetTimer()
	for range b.N {
		time.Sleep(10*time.Millisecond + time.Duration(rng.Int63n(int64(10*time.Millisecond))))
		sent := post()
		waits = append(waits, (time.Duration(started.Load())-sent).Seconds()*1e6)
	}
	b.StopTimer()
	q := histogram.Quantiles(waits, 0.5, 0.9)
	b.ReportMetric(q[0], "p50-µs")
	b.ReportMetric(q[1], "p90-µs")

	client.CloseIdleConnections()
	if err := hs.Shutdown(context.Background()); err != nil {
		b.Error(err)
	}
	if _, rep, err := srv.Stop(context.Background()); err != nil || !rep.Drained {
		b.Fatalf("Stop: %v (report %s)", err, rep)
	}
}
