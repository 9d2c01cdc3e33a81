package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"libra/internal/core"
	"libra/internal/function"
	"libra/internal/histogram"
	"libra/internal/serve"
)

// The live workloads serve the synthetic function of BENCH_PR6's
// configuration: 100 millicores, 64 MB, 50 ms, on 96 Jetstream nodes
// behind 64 scheduler shards. Its demand equals its allocation, so the
// harvest and coverage layers idle and what is measured is the control
// plane: wall driver, ingest pipeline, admission, serve hooks, HTTP.
const (
	synName    = "SYN"
	synService = 0.05 // seconds one SYN invocation executes

	// Offered rates at shrink 1. pacedRate is about half of what the
	// in-process loop sustains on the recording host (reference.json); a
	// run on a host that cannot inject it on time is reported invalid.
	pacedRate      = 60_000
	saturateRate   = 500_000
	backgroundRate = 40_000

	// saturateWiden multiplies the scheduler shards and the node size of
	// the saturate phase's server. Every shard serialises its decisions
	// at the modelled 0.52 ms each, so BENCH_PR6's 64 shards cap the
	// server at 123k req/s on any host fast enough, which measures the
	// model and not the program. Four times the shards (over nodes four
	// times the size, so each shard's slice of a node is unchanged) puts
	// the modelled cap at 492k req/s, about twice what the recording
	// host's loop sustains.
	saturateWiden = 4

	// rateSlices is how many equal slices a throughput phase is cut into.
	rateSlices = 12

	// maxGenLate is the share of the offered load the generator may still
	// owe at its deadline before latency numbers are refused.
	maxGenLate = 0.01
)

var registerSYN = sync.OnceValue(func() error {
	return function.Register(function.Synthetic(synName, 100, 64, synService, 0))
})

// liveServer is one started server with the decorators it was given.
type liveServer struct {
	*serve.Server
	src    *timingSource   // nil untraced
	tracer *countingTracer // nil untraced
}

// startServer builds and starts the serving configuration and returns
// once it has answered its first invocation; that whole span is the
// workload's set-up time.
func startServer(e env, addr string, widen int) (*liveServer, time.Duration, error) {
	t0 := time.Now()
	if err := registerSYN(); err != nil {
		return nil, 0, err
	}
	pc, err := core.Config{
		Variant: core.VariantLibra, Testbed: core.TestbedJetstream,
		Nodes: 96, Schedulers: 64, Seed: e.seed,
	}.PlatformConfig()
	if err != nil {
		return nil, 0, err
	}
	pc.DispatchTime = 2e-5
	pc.Schedulers *= widen
	pc.NodeCap = pc.NodeCap.Scale(float64(widen))
	ls := &liveServer{}
	cfg := serve.Config{Platform: pc, Addr: addr}
	if e.traced {
		ls.src, ls.tracer = newTimingSource(), &countingTracer{}
		cfg.Source, cfg.Tracer = ls.src, ls.tracer
	}
	if ls.Server, err = serve.New(cfg); err != nil {
		return nil, 0, err
	}
	if err := ls.Start(); err != nil {
		return nil, 0, err
	}
	if _, err := ls.Invoke(context.Background(), synName, function.Input{Size: 1, Seed: 1}); err != nil {
		ls.stop(nil)
		return nil, 0, fmt.Errorf("first invocation: %w", err)
	}
	return ls, time.Since(t0), nil
}

// stop shuts the server down and holds it to the live invariants: a
// clean drain and closed conservation of ingested work. res may be nil
// when the server is being discarded after a failed start.
func (ls *liveServer) stop(res *result) serve.DrainReport {
	pres, rep, err := ls.Stop(context.Background())
	if res == nil {
		return rep
	}
	st := ls.Snapshot()
	switch {
	case err != nil:
		res.violatef("stop: %v", err)
	case !rep.Drained || rep.FailedWaiters != 0:
		res.violatef("unclean drain: %s", rep)
	case st.Ingested != st.Completed+st.Abandoned+st.Expired:
		res.violatef("conservation broken: ingested %d != completed %d + abandoned %d + expired %d",
			st.Ingested, st.Completed, st.Abandoned, st.Expired)
	case pres.LeakedLoans != 0 || pres.CapacityViolations != 0:
		res.violatef("%d leaked loan units, %d capacity violations", pres.LeakedLoans, pres.CapacityViolations)
	}
	return rep
}

// quiesce waits until everything the server admitted has finished.
func (ls *liveServer) quiesce() {
	for ls.Pending() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// phaseCount is what one phase sent and what became of it.
type phaseCount struct{ sent, ok, failed int64 }

func (res *result) addPhase(name string, c phaseCount) {
	res.notef("phase %s: sent %d ok %d failed %d", name, c.sent, c.ok, c.failed)
	if c.sent != c.ok+c.failed {
		res.violatef("phase %s: sent %d != ok %d + failed %d", name, c.sent, c.ok, c.failed)
	}
	res.attempted += c.sent
	res.failed += c.failed
}

// checkGoroutines waits for the goroutine count to come back to what it
// was before the workload started anything.
func (res *result) checkGoroutines(baseline int) {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		res.violatef("%d goroutines left running (baseline %d)", n, baseline)
	}
}

// window is a pair of server snapshots bracketing a measured interval.
type window struct {
	ls      *liveServer
	s0      serve.Stats
	t0      time.Time
	idle0   time.Duration
	waits0  int64
	rt      *runtimeStats
	mallocs uint64
	wall    time.Duration
	s1      serve.Stats
}

func (ls *liveServer) openWindow() *window {
	w := &window{ls: ls, s0: ls.Snapshot(), t0: time.Now(), rt: startRuntimeStats()}
	if ls.src != nil {
		w.idle0, w.waits0 = ls.src.idle(), ls.src.waits.Load()
	}
	return w
}

func (w *window) close() {
	w.wall = time.Since(w.t0)
	w.mallocs = w.rt.mallocs()
	w.s1 = w.ls.Snapshot()
}

func (w *window) completed() float64 { return float64(w.s1.Completed - w.s0.Completed) }

// overheadMs is the mean response latency, less the service time, of the
// invocations that completed between two snapshots.
func overheadMs(a, b serve.Stats) float64 {
	sum := b.LatencyMeanMs*float64(b.Completed) - a.LatencyMeanMs*float64(a.Completed)
	return sum/float64(b.Completed-a.Completed) - synService*1e3
}

// sustainedRate reduces a throughput phase's per-slice rates to one: the
// upper quartile. What else the host runs stalls the program for up to
// seconds at a time; a stall lowers the slices it covers and the catch-up
// raises the one after. The upper quartile reads neither unless most of
// the phase was disturbed, and repeats across runs far better than the
// median or the whole-phase mean do.
func sustainedRate(rates []float64) float64 {
	s := slices.Clone(rates)
	slices.Sort(s)
	return s[len(s)*3/4]
}

// sampleRates reads the server's completion count every slice until the
// returned function is called, which returns completions per second for
// each whole slice.
func (ls *liveServer) sampleRates(slice time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var rates []float64
		tick := time.NewTicker(slice)
		defer tick.Stop()
		last, lastAt := ls.Completed(), time.Now()
		for {
			select {
			case <-done:
				out <- rates
				return
			case <-tick.C:
				now, at := ls.Completed(), time.Now()
				rates = append(rates, float64(now-last)/at.Sub(lastAt).Seconds())
				last, lastAt = now, at
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// pacedSlices is how many equal slices the paced window is cut into. The
// reported overhead is the median of the slices' means, so a slice in
// which the host stalled (GC, a stolen CPU) does not carry the run.
const pacedSlices = 18

// reportLoop writes the driver-loop metrics of a traced window.
func (w *window) reportLoop(v values) {
	if w.ls.src == nil {
		return
	}
	idle := w.ls.src.idle() - w.idle0
	v["clock.idle_s"] = idle.Seconds()
	v["clock.loop_busy_frac"] = 1 - idle.Seconds()/w.wall.Seconds()
	v["clock.waits_n"] = float64(w.ls.src.waits.Load() - w.waits0)
	v["serve.events_per_inv"] = float64(w.s1.EventsFired-w.s0.EventsFired) / w.completed()
}

// offered is what a finished load generator sent and what became of it.
func offered(lg *serve.LoadGen) phaseCount {
	refused := lg.Shed() + lg.Failed()
	return phaseCount{sent: lg.Injected() + refused, ok: lg.Injected(), failed: refused}
}

func runLiveInproc(e env) (*result, error) {
	res := newResult("live-inproc", e)
	baseline := runtime.NumGoroutine()

	// A server that is started and discarded, so the two measured ones
	// start in a process whose heap and code are warm.
	ls, warmup, err := startServer(e, "", 1)
	if err != nil {
		return nil, err
	}
	ls.stop(res)
	paced, err := pacedPhase(e, res)
	if err != nil {
		return nil, err
	}
	saturate, err := saturatePhase(e, res)
	if err != nil {
		return nil, err
	}
	res.v["setup_s"] = median([]float64{warmup.Seconds(), paced.Seconds(), saturate.Seconds()})
	res.v["failed_frac"] = float64(res.failed) / float64(res.attempted)
	res.checkGoroutines(baseline)
	if e.traced {
		runRungs(res.workload, e, res)
	}
	return res, nil
}

// pacedPhase offers a fresh server an open loop at a fixed rate the loop
// can keep up with, and reads the latency it adds. It returns the
// server's set-up time.
func pacedPhase(e env, res *result) (time.Duration, error) {
	ls, setup, err := startServer(e, "", 1)
	if err != nil {
		return 0, err
	}
	warm, paced := min(1, 0.1*e.seconds), 0.5*e.seconds
	rate := pacedRate * e.shrink
	lg, err := ls.StartLoad(serve.LoadGenConfig{App: synName, Rate: rate, Duration: warm + paced, Seed: e.seed})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	time.Sleep(time.Duration(warm * float64(time.Second)))
	w := ls.openWindow()
	overheads := make([]float64, pacedSlices)
	prev := w.s0
	for i := range overheads {
		at := warm + paced*float64(i+1)/pacedSlices
		time.Sleep(time.Until(start.Add(time.Duration(at * float64(time.Second)))))
		now := ls.Snapshot()
		overheads[i] = overheadMs(prev, now)
		prev = now
	}
	w.close()
	late := max(0, 1-float64(lg.Injected())/(rate*(warm+paced)))
	<-lg.Done()
	ls.quiesce()
	st := ls.Snapshot()
	c := offered(lg)
	c.ok, c.failed = st.Completed-1, c.failed+st.Abandoned+st.Expired // less the set-up invocation
	res.addPhase("paced", c)
	rep := ls.stop(res)

	res.v["overhead_ms"] = median(overheads)
	res.v["allocs_per_inv"] = float64(w.mallocs) / w.completed()
	res.v["serve.gen_late_frac"] = late
	if late > maxGenLate {
		res.invalidf("generator still owed %.1f%% of the offered load at its deadline: this host cannot pace %g req/s, latency is not valid", late*100, rate)
	}
	res.notef("paced %g req/s for %.1fs: %d completions in the window, generator %.4f%% late", rate, paced, int64(w.completed()), late*100)
	w.rt.report(res.v)
	w.reportLoop(res.v)
	res.v["serve.peak_pending"] = float64(st.PeakPending)
	res.v["serve.shed_n"] = float64(st.Shed)
	res.v["serve.expired_n"] = float64(st.Expired)
	res.v["serve.drain_s"] = rep.WaitedSeconds
	if ls.tracer != nil {
		res.spans = ls.tracer.report(res.v)
	}
	return setup, nil
}

// saturatePhase offers a fresh server more than the host can take. The
// generator runs on the loop it feeds, so a saturated loop injects late
// and what completes per second is the host's ceiling. It returns the
// server's set-up time.
func saturatePhase(e env, res *result) (time.Duration, error) {
	ls, setup, err := startServer(e, "", saturateWiden)
	if err != nil {
		return 0, err
	}
	done0, satSecs := ls.Completed(), 0.3*e.seconds
	lg, err := ls.StartLoad(serve.LoadGenConfig{App: synName, Rate: saturateRate * e.shrink, Duration: satSecs, Seed: e.seed})
	if err != nil {
		return 0, err
	}
	slice := time.Duration(satSecs / rateSlices * float64(time.Second))
	stopSampling := ls.sampleRates(slice)
	<-lg.Done()
	ls.quiesce()
	rates := stopSampling()
	st := ls.Snapshot()
	c := offered(lg)
	c.ok, c.failed = st.Completed-done0, c.failed+st.Abandoned+st.Expired
	res.addPhase("saturate", c)
	ls.stop(res)
	if len(rates) < 2 {
		return 0, fmt.Errorf("live-inproc: saturate phase ended within %v of starting", 2*slice)
	}
	res.v["inv_per_s"] = sustainedRate(rates[1:]) // the first slice holds the ramp from empty
	res.notef("saturate: %d slices of %v", len(rates)-1, slice)
	return setup, nil
}

// httpClient is the closed-loop client of the live-http workload: conns
// workers, one keep-alive connection each.
type httpClient struct {
	http.Client
	base  string
	conns int
	dials atomic.Int64
}

func newHTTPClient(addr string, conns int) *httpClient {
	c := &httpClient{base: "http://" + addr + "/invoke/" + synName + "?size=1", conns: conns}
	d := &net.Dialer{}
	c.Transport = &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, address)
		},
	}
	return c
}

// post sends one POST and reads the whole reply, which is what lets the
// connection be used again.
func (c *httpClient) post(url string) (status int, err error) {
	resp, err := c.Post(url, "", nil)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// phase runs every worker in a closed loop until the deadline: POST,
// wait for the whole reply, think, POST again. It returns the counts and
// the latency in seconds of every request that got the wanted status.
// Think time is uniform in [0, think) from the seed.
func (c *httpClient) phase(query string, want int, d, think time.Duration, seed int64) httpPhase {
	var (
		mu  sync.Mutex
		out = httpPhase{length: d}
		wg  sync.WaitGroup
		seq atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(d)
	for i := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n phaseCount
			var lats, ends []float64
			rng := rand.New(rand.NewSource(seed + int64(i)))
			for time.Now().Before(deadline) {
				if think > 0 {
					time.Sleep(time.Duration(rng.Float64() * float64(think)))
				}
				url := c.base + query + "&seed=" + strconv.FormatInt(seq.Add(1), 10)
				n.sent++
				t0 := time.Now()
				if status, err := c.post(url); err != nil || status != want {
					n.failed++
					continue
				}
				end := time.Now()
				lats = append(lats, end.Sub(t0).Seconds())
				ends = append(ends, end.Sub(start).Seconds())
				n.ok++
			}
			mu.Lock()
			out.sent, out.ok, out.failed = out.sent+n.sent, out.ok+n.ok, out.failed+n.failed
			out.lats = append(out.lats, lats...)
			out.ends = append(out.ends, ends...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// httpPhase is what one closed-loop phase sent and observed.
type httpPhase struct {
	phaseCount
	length time.Duration
	lats   []float64 // seconds from send to the end of the reply, per good reply
	ends   []float64 // seconds from the phase's start to the end of each good reply
}

// rate is good replies per second, sustained over rateSlices equal
// slices of the phase.
func (p httpPhase) rate() float64 {
	width := p.length.Seconds() / rateSlices
	counts := make([]float64, rateSlices)
	for _, end := range p.ends {
		if i := int(end / width); i < rateSlices { // a reply that straddled the deadline belongs to no slice
			counts[i]++
		}
	}
	return sustainedRate(counts) / width
}

// startHTTP is the live-http set-up: server up and answering, every
// connection dialled by a synchronous request, 100 acknowledged ones to
// warm the ingress.
func startHTTP(e env, conns int) (*liveServer, *httpClient, time.Duration, error) {
	t0 := time.Now()
	ls, _, err := startServer(e, "127.0.0.1:0", 1)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newHTTPClient(ls.Addr(), conns)
	var wg sync.WaitGroup
	errs := make(chan error, conns) // one slot per dialling request
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.post(c.base)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			c.CloseIdleConnections()
			ls.stop(nil)
			return nil, nil, 0, fmt.Errorf("dial: %w", err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := c.post(c.base + "&nowait=1"); err != nil {
			c.CloseIdleConnections()
			ls.stop(nil)
			return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return ls, c, time.Since(t0), nil
}

func runLiveHTTP(e env) (*result, error) {
	res := newResult("live-http", e)
	baseline := runtime.NumGoroutine()
	conns := min(runtime.NumCPU(), 4)
	var setups []float64
	for range 2 {
		ls, c, d, err := startHTTP(e, conns)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		c.CloseIdleConnections()
		ls.quiesce()
		ls.stop(res)
	}
	ls, c, d, err := startHTTP(e, conns)
	if err != nil {
		return nil, err
	}
	res.v["setup_s"] = median(append(setups, d.Seconds()))
	warmups := int64(conns + 100 + 1)

	bg, err := ls.StartLoad(serve.LoadGenConfig{App: synName, Rate: backgroundRate * e.shrink, Seed: e.seed})
	if err != nil {
		return nil, err
	}
	// Let the background reach its steady state, then take what it alone
	// allocates per invocation, to be netted out of the ack phase below.
	settle := time.Duration(min(0.2, 0.02*e.seconds) * float64(time.Second))
	time.Sleep(settle)
	w := ls.openWindow()
	bgAlone, bg0 := ls.openWindow(), bg.Injected()
	time.Sleep(2 * settle)
	bgAlone.close()
	bgAllocs := float64(bgAlone.mallocs) / float64(bg.Injected()-bg0)
	phaseLen := time.Duration(0.5 * e.seconds * float64(time.Second))

	// Phase sync: callers that wait for the reply. A reply takes 50 ms
	// and a little, a whole number of the background generator's 2 ms
	// injection periods and a little, so a caller that re-sends at once
	// keeps hitting the same point of the period for the whole run and
	// reads that point's queueing, high or low. Thinking for up to one
	// period spreads the requests over it.
	syncs := c.phase("", http.StatusOK, phaseLen, 2*time.Millisecond, e.seed)
	res.addPhase("sync", syncs.phaseCount)
	// Phase ack: the same connections, fire and forget.
	ackWindow, bg0 := ls.openWindow(), bg.Injected()
	stopSampling := ls.sampleRates(phaseLen / rateSlices)
	acks := c.phase("&nowait=1", http.StatusAccepted, phaseLen, 0, e.seed)
	served := stopSampling()
	ackWindow.close()
	ackAllocs := float64(ackWindow.mallocs) - bgAllocs*float64(bg.Injected()-bg0)
	res.addPhase("ack", acks.phaseCount)
	w.close()

	var invokeP50 float64
	var invoked int64
	if e.traced {
		// The ingress's in-process twin, for the cost of HTTP alone.
		invokeP50, invoked = invokeLoop(ls, conns, phaseLen/5)
	}
	bg.Stop()
	<-bg.Done()
	ls.quiesce()
	st := ls.Snapshot()
	c.CloseIdleConnections()
	rep := ls.stop(res)

	// Whatever the server completed beyond what the client and the set-up
	// sent came from the background generator.
	load := offered(bg)
	load.ok = st.Completed - (warmups + syncs.ok + acks.ok + invoked)
	load.failed += st.Abandoned + st.Expired
	res.addPhase("background", load)
	if dials := c.dials.Load(); dials > int64(conns) {
		res.invalidf("client opened %d connections, more than the %d allowed: latency is not valid", dials, conns)
	}
	if syncs.ok == 0 || acks.ok == 0 {
		return nil, fmt.Errorf("live-http: no successful requests (sync %+v, ack %+v)", syncs.phaseCount, acks.phaseCount)
	}

	sq := histogram.Quantiles(syncs.lats, 0.5, 0.95)
	aq := histogram.Quantiles(acks.lats, 0.5, 0.99)
	res.v["overhead_ms"] = (sq[0] - synService) * 1e3
	// Everything the server completes per second while the ack callers
	// run, background included. The acknowledged share alone repeats too
	// poorly across runs to carry a bound (README.md), so it is a
	// per-layer metric.
	res.v["inv_per_s"] = sustainedRate(served)
	res.v["http_ack_inv_per_s"] = acks.rate()
	res.v["allocs_per_inv"] = ackAllocs / float64(acks.ok) // client and server side of one acknowledged invoke
	res.v["failed_frac"] = float64(res.failed) / float64(res.attempted)
	res.v["http_sync_overhead_p95_ms"] = (sq[1] - synService) * 1e3
	res.v["http_ack_p50_us"] = aq[0] * 1e6
	res.v["http_ack_p99_us"] = aq[1] * 1e6
	res.notef("%d connections; sync p50 over %d samples, ack p99 over %d samples", conns, len(syncs.lats), len(acks.lats))
	w.rt.report(res.v)
	w.reportLoop(res.v)
	res.v["serve.peak_pending"] = float64(st.PeakPending)
	res.v["serve.shed_n"] = float64(st.Shed)
	res.v["serve.expired_n"] = float64(st.Expired)
	res.v["serve.drain_s"] = rep.WaitedSeconds
	if e.traced {
		res.v["serve.invoke_overhead_p50_ms"] = (invokeP50 - synService) * 1e3
		res.v["serve.http_minus_invoke_ms"] = (sq[0] - invokeP50) * 1e3
		res.spans = ls.tracer.report(res.v)
	}
	res.checkGoroutines(baseline)
	if e.traced {
		runRungs(res.workload, e, res)
	}
	return res, nil
}

// invokeLoop calls Server.Invoke in a closed loop from workers goroutines
// for d and returns the median latency in seconds and the call count.
func invokeLoop(ls *liveServer, workers int, d time.Duration) (float64, int64) {
	var (
		mu  sync.Mutex
		all []float64
		wg  sync.WaitGroup
	)
	deadline := time.Now().Add(d)
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []float64
			for seed := uint64(i); time.Now().Before(deadline); seed += uint64(workers) {
				t0 := time.Now()
				if _, err := ls.Invoke(context.Background(), synName, function.Input{Size: 1, Seed: seed}); err == nil {
					lats = append(lats, time.Since(t0).Seconds())
				}
			}
			mu.Lock()
			all = append(all, lats...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(all) == 0 {
		return 0, 0
	}
	return median(all), int64(len(all))
}
