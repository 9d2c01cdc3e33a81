// Command libra-serve runs the Libra platform live: the same front
// end, profiler, sharded schedulers and harvest pools the simulations
// replay, driven by the wall clock behind an HTTP ingress.
//
// Usage:
//
//	libra-serve                         # serve HTTP on :8080
//	libra-serve -addr :9090 -variant libra -nodes 96 -schedulers 64
//	libra-serve -rate 100000 -duration 30 -trace live.jsonl
//	libra-serve -rate 5000 -duration 2 -selfcheck   # CI smoke
//	libra-serve -rate 12000 -max-pending 2000 -deadline 500 -chaos \
//	    -degrade-hi 500 -selfcheck      # overload + faults, bounded
//
//	curl -X POST 'localhost:8080/invoke/DH?size=4000'
//	curl -X POST 'localhost:8080/invoke/DH?deadline_ms=250'
//	curl -X POST 'localhost:8080/invoke/DH?nowait=1&deadline_ms=250'
//	curl localhost:8080/registry
//	curl localhost:8080/stats
//
// With -rate the built-in open-loop generator injects -app requests per
// second directly into the event loop (no HTTP overhead), for -duration
// seconds; the command then drains, prints a summary and exits. Without
// -duration it serves until SIGINT/SIGTERM.
//
// The ingress is overload-safe: -max-pending bounds admitted work
// (excess shed with 429 + Retry-After), -deadline drops queued work
// that can no longer answer in time (504), and -degrade-hi/-degrade-lo
// suppress harvest acceleration under backlog. -chaos arms the fault
// injector (node crashes, OOM kills, stragglers; -fault-* flags tune
// it) on the wall clock. Shutdown is a two-phase audited drain bounded
// by -drain-timeout; -selfcheck additionally gates on zero leaked
// loans, zero capacity violations and a respected pending budget.
//
// -nodegroup "min:desired:max" makes the cluster elastic: an autoscale
// controller watches ready-queue backlog and reservation pressure and
// grows or drain-then-retires group nodes above the fixed -nodes base
// fleet (the -scale-* flags tune the watermarks, step sizes, cooldown
// and drain grace; /stats reports live membership and decision counts).
//
// The synthetic micro-function SYN (constant demand, -syn-* flags) is
// registered alongside the paper's ten apps — the load generator's
// default target.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"libra/internal/cliflags"
	"libra/internal/function"
	"libra/internal/obs"
	"libra/internal/platform"
	"libra/internal/resources"
	"libra/internal/serve"
)

func main() {
	var (
		common     = cliflags.AddCommon(flag.CommandLine)
		plat       = cliflags.AddPlatform(flag.CommandLine, "libra", "jetstream")
		flt        = cliflags.AddFaults(flag.CommandLine)
		scl        = cliflags.AddScale(flag.CommandLine)
		addr       = flag.String("addr", ":8080", "HTTP listen address (empty disables HTTP)")
		dispatch   = flag.Float64("dispatch", 2e-5, "per-decision scheduler handling time in seconds (live tuning; the simulated default of 0.025 would throttle a live shard to 40 decisions/s)")
		rate       = flag.Float64("rate", 0, "open-loop load generator rate in req/s (0 = off)")
		duration   = flag.Float64("duration", 0, "load generation window in seconds (with -rate; exit after draining)")
		app        = flag.String("app", "SYN", "load generator target function")
		synDur     = flag.Float64("syn-dur", 0.05, "SYN execution duration in seconds")
		synCPU     = flag.Int64("syn-cpu", 100, "SYN demand in millicores")
		synMem     = flag.Int64("syn-mem", 64, "SYN demand in MB")
		maxPending = flag.Int("max-pending", 0, "admission budget: cap on admitted-but-unfinished invocations, beyond it requests are shed with 429 (0 = unbounded)")
		deadlineMs = flag.Float64("deadline", 0, "default per-request deadline in milliseconds; queued invocations past it are dropped with 504 (0 = none)")
		degradeHi  = flag.Int("degrade-hi", 0, "ready-queue depth entering degraded mode (no harvest acceleration); 0 disables")
		degradeLo  = flag.Int("degrade-lo", 0, "ready-queue depth leaving degraded mode (0 = half of -degrade-hi)")
		drainSecs  = flag.Float64("drain-timeout", 30, "two-phase shutdown budget in seconds (ingress + in-flight drain)")
		benchOut   = flag.String("bench-out", "", "write a JSON bench summary to this file on exit")
		rotate     = flag.Int64("trace-rotate", 0, "rotate the trace file after this many MB, keeping the current segment plus one predecessor at <path>.1 (0 = grow unboundedly)")
		check      = flag.Bool("selfcheck", false, "probe the HTTP ingress, assert nonzero goodput and a clean drained shutdown; exit nonzero on failure")
	)
	flag.Parse()

	if err := function.Register(function.Synthetic("SYN",
		resources.Millicores(*synCPU), resources.MegaBytes(*synMem), *synDur, 0)); err != nil {
		fatal(err)
	}

	cfg := plat.CoreConfig(common.Seed)
	cfg.Faults = flt.Config()
	autoscale, err := scl.Config()
	if err != nil {
		fatal(err)
	}
	cfg.Autoscale = autoscale
	if cfg.Nodes == 0 && cfg.Testbed == "jetstream" {
		cfg.Nodes = 96 // wide enough that a 100k req/s synthetic load fits
	}
	if cfg.Schedulers == 0 && cfg.Testbed == "jetstream" {
		cfg.Schedulers = 64 // decision serialization must not be the ceiling
	}
	pc, err := cfg.PlatformConfig()
	if err != nil {
		fatal(err)
	}
	pc.DispatchTime = *dispatch

	var (
		tracer    *obs.StreamTracer
		traceFile io.Closer
	)
	if common.Trace != "" {
		f, err := os.Create(common.Trace)
		if err != nil {
			fatal(err)
		}
		var w io.Writer = f
		traceFile = f
		if *rotate > 0 {
			rw := &rotateWriter{f: f, path: common.Trace, limit: *rotate << 20}
			w, traceFile = rw, rw
		}
		tracer = obs.NewStreamTracer(w)
	}

	baseline := runtime.NumGoroutine()
	scfg := serve.Config{
		Platform:     pc,
		Addr:         *addr,
		DrainTimeout: time.Duration(*drainSecs * float64(time.Second)),
		Admission: serve.AdmissionConfig{
			MaxPending: *maxPending,
			Deadline:   time.Duration(*deadlineMs * float64(time.Millisecond)),
			DegradeHi:  *degradeHi,
			DegradeLo:  *degradeLo,
		},
	}
	if tracer != nil { // a typed-nil *StreamTracer in the interface would pass the != nil gates downstream
		scfg.Tracer = tracer
	}
	srv, err := serve.New(scfg)
	if err != nil {
		fatal(err)
	}
	if err := srv.Start(); err != nil {
		fatal(err)
	}
	if *addr != "" {
		fmt.Fprintf(os.Stderr, "libra-serve: %s on %s (%d nodes, %d schedulers)\n",
			pc.Name, srv.Addr(), pc.Nodes, pc.Schedulers)
	}

	checkFailures := 0
	if *check {
		checkFailures += probeHTTP(srv, cfg.Faults.Enabled())
	}

	var lg *serve.LoadGen
	if *rate > 0 {
		lg, err = srv.StartLoad(serve.LoadGenConfig{
			App: *app, Rate: *rate, Duration: *duration, Seed: common.Seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "libra-serve: loadgen %s at %.0f req/s", *app, *rate)
		if *duration > 0 {
			fmt.Fprintf(os.Stderr, " for %.0fs", *duration)
		}
		fmt.Fprintln(os.Stderr)
	}

	stopProfiles, err := common.StartProfiles()
	if err != nil {
		fatal(err)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	progress := time.NewTicker(5 * time.Second)
	defer progress.Stop()

	start := time.Now()
	running := true
	for running {
		select {
		case <-sig:
			if lg != nil {
				lg.Stop()
			}
			running = false
		case <-progress.C:
			st := srv.Snapshot()
			fmt.Fprintf(os.Stderr, "libra-serve: t=%.0fs ingested=%d completed=%d in-flight=%d goodput=%.0f/s lat=%.1fms\n",
				st.Uptime, st.Ingested, st.Completed, st.InFlight, st.Goodput, st.LatencyMeanMs)
		case <-loadDone(lg, *duration):
			running = false
		}
	}
	wall := time.Since(start).Seconds()

	res, drainRep, stopErr := srv.Stop(context.Background())
	if stopErr != nil {
		fatal(stopErr)
	}
	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	st := srv.Snapshot()
	drained := drainRep.Drained
	fmt.Fprintf(os.Stderr, "libra-serve: shutdown %s\n", drainRep)
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "libra-serve: wrote %d trace events to %s\n", tracer.Count(), common.Trace)
	}

	goodput := 0.0
	if wall > 0 {
		goodput = float64(st.Completed) / wall
	}
	fmt.Printf("%s: served %d invocations in %.1fs — goodput %.0f req/s, mean latency %.1fms, %d abandoned, %d expired, %d shed, %d cold starts, avg cpu util %.0f%%\n",
		pc.Name, st.Completed, wall, goodput, st.LatencyMeanMs, st.Abandoned, st.Expired, st.Shed, res.ColdStarts, res.AvgCPUUtil*100)
	if cfg.Faults.Enabled() {
		fmt.Printf("faults: %d crashes, %d oom kills, %d retries, mttr %.2fs, leaked loans %d, capacity violations %d\n",
			res.Faults.Crashes, res.Faults.OOMKills, res.Faults.Retries, res.Faults.MTTR(), res.LeakedLoans, res.CapacityViolations)
	}
	if autoscale.Enabled() {
		fmt.Printf("scale: %d ups, %d downs (%d drains, %d evictions, %d aborts), peak %d nodes, leaked loans %d, capacity violations %d\n",
			res.Scale.ScaleUps, res.Scale.ScaleDowns, res.Scale.Drains, res.Scale.DrainEvictions,
			res.Scale.ScaleAborts, res.Scale.PeakNodes, res.LeakedLoans, res.CapacityViolations)
	}

	if *benchOut != "" {
		writeBench(*benchOut, benchSummary{
			Schema: "libra-serve-bench/v1", GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Platform:   pc.Name, Nodes: pc.Nodes, Schedulers: pc.Schedulers,
			App: *app, OfferedRPS: *rate, Duration: *duration,
			WallSeconds: wall, Ingested: st.Ingested, Completed: st.Completed,
			Abandoned: st.Abandoned, Expired: st.Expired, Shed: st.Shed,
			PeakPending: st.PeakPending, GoodputRPS: goodput,
			LatencyMeanMs: st.LatencyMeanMs, LatencyP99Ms: st.LatencyP99Ms,
			EventsFired: st.EventsFired,
			TraceEvents: st.TraceEvents, TraceBlocked: st.TraceBlocked,
			Drained: drained, DrainSeconds: drainRep.WaitedSeconds,
			Crashes: res.Faults.Crashes, OOMKills: res.Faults.OOMKills,
			Retries: res.Faults.Retries, MTTRSeconds: res.Faults.MTTR(),
			LeakedLoans: res.LeakedLoans, CapacityViolations: res.CapacityViolations,
			ColdStarts: res.ColdStarts, AvgCPUUtil: res.AvgCPUUtil,
			ScaleUps: res.Scale.ScaleUps, ScaleDowns: res.Scale.ScaleDowns,
			PeakNodes: res.Scale.PeakNodes,
		})
	}

	if *check {
		checkFailures += selfcheck(st, drained, baseline)
		checkFailures += checkSafety(res, st, *maxPending)
		if checkFailures > 0 {
			fmt.Fprintf(os.Stderr, "libra-serve: selfcheck FAILED (%d checks)\n", checkFailures)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "libra-serve: selfcheck ok")
	}
	if !drained {
		os.Exit(1)
	}
}

// loadDone returns the generator's completion channel, or a never-ready
// channel when no bounded load is running (so the select blocks on
// signals alone).
func loadDone(lg *serve.LoadGen, duration float64) <-chan struct{} {
	if lg == nil || duration <= 0 {
		return nil
	}
	return lg.Done()
}

// probeHTTP exercises the ingress end to end: one synchronous invoke,
// the hostile queries the door must refuse, an acknowledged invoke with
// its own deadline, the registry, and the stats endpoint. Under chaos
// any well-formed outcome passes the synchronous probe — the invocation
// may legitimately be abandoned (500), shed (429) or expire (504); what
// that probe asserts is that the ingress answers, not that the cluster
// is healthy.
func probeHTTP(srv *serve.Server, chaos bool) (failures int) {
	base := "http://" + srv.Addr()
	resp, err := http.Post(base+"/invoke/SYN", "", nil)
	okStatus := err == nil && resp.StatusCode == http.StatusOK
	if chaos {
		okStatus = err == nil && resp.StatusCode > 0
	}
	if !okStatus {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: POST /invoke/SYN: %v (%v)\n", err, status(resp))
		failures++
	}
	drain(resp)
	// The door refuses what the platform cannot finish before it claims an
	// admission slot, chaos or not; an acknowledged invoke may carry its
	// own deadline.
	for _, probe := range []struct {
		query string
		want  int
	}{
		{"size=Inf", http.StatusBadRequest},
		{"size=NaN", http.StatusBadRequest},
		{"deadline_ms=NaN", http.StatusBadRequest},
		{"nowait=1&deadline_ms=250", http.StatusAccepted},
	} {
		resp, err := http.Post(base+"/invoke/SYN?"+probe.query, "", nil)
		if err != nil || resp.StatusCode != probe.want {
			fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: POST /invoke/SYN?%s: %v (%v), want %d\n", probe.query, err, status(resp), probe.want)
			failures++
		}
		drain(resp)
	}
	for _, path := range []string{"/registry", "/stats", "/healthz"} {
		resp, err := http.Get(base + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: GET %s: %v (%v)\n", path, err, status(resp))
			failures++
		}
		drain(resp)
	}
	http.DefaultClient.CloseIdleConnections()
	return failures
}

// selfcheck asserts the run's outcome: work flowed, everything drained,
// and the process is back to its pre-server goroutine count (the loop,
// the listener and every handler exited — no leaks).
func selfcheck(st serve.Stats, drained bool, baseline int) (failures int) {
	if st.Completed == 0 {
		fmt.Fprintln(os.Stderr, "libra-serve: selfcheck: zero goodput")
		failures++
	}
	if !drained || st.InFlight != 0 {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: not drained (%d in flight)\n", st.InFlight)
		failures++
	}
	deadline := time.Now().Add(2 * time.Second)
	goroutines := runtime.NumGoroutine()
	for goroutines > baseline+1 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		goroutines = runtime.NumGoroutine()
	}
	if goroutines > baseline+1 {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: %d goroutines leaked (baseline %d, now %d)\n",
			goroutines-baseline, baseline, goroutines)
		failures++
	}
	return failures
}

// checkSafety asserts the paper's safety invariants held for the whole
// run — chaos or not: every harvest loan reconciled, no node ever over
// capacity, and when an admission budget was set, it was never
// overshot (the server shed instead of collapsing).
func checkSafety(res *platform.Result, st serve.Stats, maxPending int) (failures int) {
	if res.LeakedLoans != 0 {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: %d harvest-loan units leaked\n", res.LeakedLoans)
		failures++
	}
	if res.CapacityViolations != 0 {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: %d node capacity violations\n", res.CapacityViolations)
		failures++
	}
	if maxPending > 0 && st.PeakPending > int64(maxPending) {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: peak pending %d exceeded budget %d\n", st.PeakPending, maxPending)
		failures++
	}
	// Conservation: everything admitted left through exactly one exit.
	if got := st.Completed + st.Abandoned + st.Expired; st.Ingested != got {
		fmt.Fprintf(os.Stderr, "libra-serve: selfcheck: conservation broken: ingested %d != completed+abandoned+expired %d\n", st.Ingested, got)
		failures++
	}
	return failures
}

func status(resp *http.Response) string {
	if resp == nil {
		return "no response"
	}
	return resp.Status
}

func drain(resp *http.Response) {
	if resp != nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// rotateWriter caps the live trace's disk (and, on tmpfs, memory)
// footprint: once the current segment exceeds limit bytes it is renamed
// to <path>.1 — replacing, and thereby freeing, the previous rotation —
// and a fresh segment starts at <path>. The tracer hands over whole
// chunks of complete JSONL lines, so every segment parses on its own.
// Only the tracer's writer goroutine calls Write.
type rotateWriter struct {
	f     *os.File
	path  string
	limit int64
	n     int64
}

func (w *rotateWriter) Write(p []byte) (int, error) {
	if w.n > 0 && w.n+int64(len(p)) > w.limit {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *rotateWriter) rotate() error {
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return err
	}
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	w.f, w.n = f, 0
	return nil
}

func (w *rotateWriter) Close() error { return w.f.Close() }

type benchSummary struct {
	Schema             string  `json:"schema"`
	GoVersion          string  `json:"go_version"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	Platform           string  `json:"platform"`
	Nodes              int     `json:"nodes"`
	Schedulers         int     `json:"schedulers"`
	App                string  `json:"app"`
	OfferedRPS         float64 `json:"offered_rps"`
	Duration           float64 `json:"duration_s"`
	WallSeconds        float64 `json:"wall_s"`
	Ingested           int64   `json:"ingested"`
	Completed          int64   `json:"completed"`
	Abandoned          int64   `json:"abandoned"`
	Expired            int64   `json:"deadline_expired"`
	Shed               int64   `json:"shed"`
	PeakPending        int64   `json:"peak_pending"`
	GoodputRPS         float64 `json:"goodput_rps"`
	LatencyMeanMs      float64 `json:"latency_mean_ms"`
	LatencyP99Ms       float64 `json:"latency_p99_ms"`
	EventsFired        uint64  `json:"events_fired"`
	TraceEvents        uint64  `json:"trace_events"`
	TraceBlocked       uint64  `json:"trace_blocked_flushes"`
	Drained            bool    `json:"drained"`
	DrainSeconds       float64 `json:"drain_s"`
	Crashes            int     `json:"crashes"`
	OOMKills           int     `json:"oom_kills"`
	Retries            int     `json:"retries"`
	MTTRSeconds        float64 `json:"mttr_s"`
	LeakedLoans        int64   `json:"leaked_loans"`
	CapacityViolations int     `json:"capacity_violations"`
	ColdStarts         int     `json:"cold_starts"`
	AvgCPUUtil         float64 `json:"avg_cpu_util"`
	ScaleUps           int64   `json:"scale_ups,omitempty"`
	ScaleDowns         int64   `json:"scale_downs,omitempty"`
	PeakNodes          int64   `json:"peak_nodes,omitempty"`
}

func writeBench(path string, s benchSummary) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "libra-serve: wrote bench summary to %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "libra-serve:", err)
	os.Exit(1)
}
