// Package serve is the live control plane: the same platform pipeline
// the simulations replay — front end, profiler, sharded schedulers,
// watermark-gated ready queue, harvest pools — driven by the wall-clock
// driver (internal/clock) instead of the virtual-time engine, with an
// HTTP ingress in front of it.
//
// Architecture (DESIGN.md §8): every piece of platform state lives on
// the driver's single loop goroutine, exactly as it lives on the sim
// engine's goroutine during a replay. HTTP handlers and the load
// generator never touch it directly — they submit closures onto the
// loop (Driver.Submit) and wait on channels for the outcome. That keeps
// the scheduler, cluster and harvest code lock-free and byte-for-byte
// identical between the simulated and the live paths.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"libra/internal/clock"
	"libra/internal/cluster"
	"libra/internal/function"
	"libra/internal/histogram"
	"libra/internal/obs"
	"libra/internal/platform"
)

// Config configures a Server.
type Config struct {
	// Platform is the platform configuration to serve on; validated by
	// platform.New. Live serving wants a much smaller DispatchTime than
	// the simulated default (the 25 ms OpenWhisk-calibrated handling
	// time becomes real queueing delay here) and enough scheduler shards
	// that decision serialization is not the throughput ceiling.
	Platform platform.Config
	// Addr is the HTTP listen address; empty disables the HTTP ingress
	// (load-generator-only operation).
	Addr string
	// Tracer, if non-nil, receives the live invocation-lifecycle events
	// on the loop goroutine (typically an obs.StreamTracer).
	Tracer obs.Tracer
	// Source overrides the driver's time source; nil uses the machine's
	// monotonic clock. Tests inject clock.NewManualSource() to run the
	// whole server deterministically.
	Source clock.Source
	// DrainTimeout bounds the whole two-phase shutdown: ingress drain and
	// in-flight-invocation drain share this budget (default 30s).
	DrainTimeout time.Duration
	// Admission bounds what the ingress accepts: pending budget, default
	// deadlines and the degraded-mode watermarks. The zero value disables
	// every limit; validated by New.
	Admission AdmissionConfig
}

// Server runs one live platform behind an HTTP ingress.
type Server struct {
	cfg Config
	adm AdmissionConfig // cfg.Admission with defaults resolved
	drv *clock.Driver
	p   *platform.Platform

	httpSrv *http.Server
	ln      net.Listener

	nextID    atomic.Int64
	ingested  atomic.Int64
	completed atomic.Int64
	abandoned atomic.Int64
	expired   atomic.Int64
	shed      atomic.Int64
	latMicro  atomic.Int64 // Σ response latency in µs

	// pending is the admission gauge: admitted invocations that have not
	// completed, been abandoned or expired yet. It is incremented before
	// the work reaches the loop, so the budget check-and-claim is atomic.
	pending     atomic.Int64
	peakPending atomic.Int64
	readyDepth  atomic.Int64 // loop-maintained mirror of PendingReady for /stats

	degraded        atomic.Bool
	degradedEntries atomic.Int64
	draining        atomic.Bool

	histMu sync.Mutex
	hist   *histogram.Histogram // response latency, seconds

	mu      sync.Mutex
	waiters map[int64]chan waitResult
	// waiting is len(waiters), written under mu beside every insert and
	// delete. A waiter registers before the Submit that ingests its
	// invocation, so the loop, which learns of the invocation through the
	// driver's mutex, reads at least one here by the time the invocation
	// leaves; at zero nobody can be waiting and takeWaiter skips the lock —
	// every LoadGen and nowait invocation.
	waiting atomic.Int64

	started  atomic.Bool
	startAt  time.Time
	loopDone chan struct{}
}

type waitResult struct {
	rec platform.InvRecord
	err error
}

// New builds a Server. The platform is constructed immediately (so
// configuration errors surface here), but nothing runs until Start.
func New(cfg Config) (*Server, error) {
	src := cfg.Source
	if src == nil {
		src = clock.NewRealSource()
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if err := cfg.Admission.Validate(); err != nil {
		return nil, err
	}
	drv := clock.NewDriver(src)
	pc := cfg.Platform
	pc.Tracer = cfg.Tracer
	p, err := platform.New(drv, pc)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg: cfg,
		adm: cfg.Admission.withDefaults(),
		drv: drv,
		p:   p,
		// 5 ms buckets to 30 s: wide enough for chaos-run tail latencies,
		// fine enough that p50/p99 reads are not bucket artifacts.
		hist:     histogram.New(0, 30, 6000),
		waiters:  make(map[int64]chan waitResult),
		loopDone: make(chan struct{}),
	}, nil
}

// Driver exposes the server's clock driver (the load generator and
// tests schedule against it).
func (s *Server) Driver() *clock.Driver { return s.drv }

// Platform exposes the underlying platform. Only touch it from closures
// submitted onto the loop.
func (s *Server) Platform() *platform.Platform { return s.p }

// Start switches the platform into live-serving mode, launches the
// event loop, and (when configured) begins serving HTTP.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return errors.New("serve: Start called twice")
	}
	s.p.StartServing(platform.ServeHooks{Done: s.onDone, Abandon: s.onAbandon, Expired: s.onExpire})
	s.startAt = time.Now()
	if s.adm.Deadline > 0 {
		// Reap queued-past-deadline invocations between scheduler pickups,
		// so a deadline blown while capacity-blocked is detected within a
		// quarter period instead of only at the next dispatch attempt.
		period := s.adm.Deadline.Seconds() / 4
		period = min(max(period, 0.01), 1.0)
		clock.Every(s.drv, period, func() {
			if s.p.ExpireOverdue() > 0 {
				s.updateDegraded()
			}
		})
	}
	go func() {
		s.drv.Serve(context.Background())
		close(s.loopDone)
	}()
	if s.cfg.Addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		s.drv.Stop()
		<-s.loopDone
		return err
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("POST /invoke/{fn}", s.handleInvoke)
	mux.HandleFunc("GET /registry", s.handleRegistry)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.httpSrv = &http.Server{Handler: mux}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the bound HTTP address (useful with ":0" listeners), or
// "" when HTTP is disabled.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// onDone runs on the loop goroutine for every completed invocation.
func (s *Server) onDone(rec platform.InvRecord) {
	s.completed.Add(1)
	s.latMicro.Add(int64(rec.Latency * 1e6))
	s.histMu.Lock()
	s.hist.Observe(rec.Latency)
	s.histMu.Unlock()
	s.release()
	s.updateDegraded()
	if ch := s.takeWaiter(int64(rec.Inv.ID)); ch != nil {
		// rec.Inv is the platform's until this hook returns, then the next
		// arrival's (platform.ServeHooks.Done); the waiter gets its own.
		inv := *rec.Inv
		rec.Inv = &inv
		ch <- waitResult{rec: rec}
	}
}

// onAbandon runs on the loop goroutine when an invocation's retry
// budget is spent under fault injection.
func (s *Server) onAbandon(inv *cluster.Invocation) {
	s.abandoned.Add(1)
	s.release()
	s.updateDegraded()
	s.deliver(int64(inv.ID), waitResult{err: fmt.Errorf("serve: invocation %d abandoned after %d failures", inv.ID, inv.Failures)})
}

// onExpire runs on the loop goroutine when an invocation's deadline
// passed while it was still queued.
func (s *Server) onExpire(inv *cluster.Invocation) {
	s.expired.Add(1)
	s.release()
	s.updateDegraded()
	s.deliver(int64(inv.ID), waitResult{err: fmt.Errorf("%w: invocation %d", ErrDeadlineExpired, inv.ID)})
}

// admit claims one slot of the admission budget, or reports why the
// request must be rejected. Safe from any goroutine: the gauge is
// incremented before the budget check resolves, so two racing admits
// cannot both squeeze into the last slot.
func (s *Server) admit() error {
	if s.draining.Load() {
		s.shed.Add(1)
		return ErrDraining
	}
	n := s.pending.Add(1)
	if s.adm.MaxPending > 0 && n > int64(s.adm.MaxPending) {
		s.pending.Add(-1)
		s.shed.Add(1)
		return ErrShed
	}
	for {
		peak := s.peakPending.Load()
		if n <= peak || s.peakPending.CompareAndSwap(peak, n) {
			return nil
		}
	}
}

// release returns one admission slot; called exactly once per admitted
// invocation, whichever way it leaves (done, abandoned, expired, or
// ingest error).
func (s *Server) release() { s.pending.Add(-1) }

// updateDegraded runs on the loop goroutine after any event that moves
// the ready-queue depth, and flips degraded mode across the hysteresis
// band: above DegradeHi new dispatches lose harvest acceleration
// (protecting user-demand capacity); below DegradeLo acceleration
// resumes.
func (s *Server) updateDegraded() {
	depth := int64(s.p.PendingReady())
	s.readyDepth.Store(depth)
	if s.adm.DegradeHi <= 0 {
		return
	}
	if s.degraded.Load() {
		if depth <= int64(s.adm.DegradeLo) {
			s.degraded.Store(false)
			s.p.SetDegraded(false)
		}
	} else if depth >= int64(s.adm.DegradeHi) {
		s.degraded.Store(true)
		s.degradedEntries.Add(1)
		s.p.SetDegraded(true)
	}
}

// takeWaiter unregisters and returns the channel of the Invoke call that
// waits for invocation id, nil when none does. The channel is buffered:
// sending the outcome never blocks the loop.
func (s *Server) takeWaiter(id int64) chan waitResult {
	if s.waiting.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ch, ok := s.waiters[id]
	if ok {
		delete(s.waiters, id)
		s.waiting.Add(-1)
	}
	return ch
}

func (s *Server) deliver(id int64, res waitResult) {
	if ch := s.takeWaiter(id); ch != nil {
		ch <- res
	}
}

// Ingested, Completed, Abandoned, Expired and Shed report the server's
// lifetime counters; InFlight is what was ingested and has not finished
// either way; Pending is the admission gauge (InFlight plus admitted
// work not yet on the loop). All safe from any goroutine.
func (s *Server) Ingested() int64  { return s.ingested.Load() }
func (s *Server) Completed() int64 { return s.completed.Load() }
func (s *Server) Abandoned() int64 { return s.abandoned.Load() }
func (s *Server) Expired() int64   { return s.expired.Load() }
func (s *Server) Shed() int64      { return s.shed.Load() }
func (s *Server) Pending() int64   { return s.pending.Load() }
func (s *Server) InFlight() int64 {
	return s.ingested.Load() - s.completed.Load() - s.abandoned.Load() - s.expired.Load()
}

// Degraded reports whether the platform is currently in degraded mode.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// ingestDeadline runs on the loop goroutine: it pushes one admitted
// invocation into the platform with rem of deadline budget left (0 =
// no deadline) and keeps the counters straight. The admission slot is
// returned here on ingest error — otherwise it is the lifecycle hooks'
// to release.
func (s *Server) ingestDeadline(id int64, app string, in function.Input, rem time.Duration) error {
	dl := 0.0
	if rem != 0 {
		dl = s.drv.Now() + rem.Seconds()
	}
	if err := s.p.IngestDeadline(id, app, in, dl); err != nil {
		s.release()
		return err
	}
	s.ingested.Add(1)
	s.updateDegraded()
	return nil
}

// NextID hands out the next invocation ID (monotone, unique for the
// server's lifetime).
func (s *Server) NextID() int64 { return s.nextID.Add(1) }

// Invoke submits one invocation from any goroutine and waits for its
// completion (or ctx cancellation). It is the programmatic twin of the
// POST /invoke handler.
func (s *Server) Invoke(ctx context.Context, app string, in function.Input) (platform.InvRecord, error) {
	if _, ok := function.ByName(app); !ok {
		return platform.InvRecord{}, fmt.Errorf("serve: unknown function %q", app)
	}
	if !validSize(in.Size) {
		return platform.InvRecord{}, fmt.Errorf("serve: input size %g is not a positive finite number", in.Size)
	}
	if err := s.admit(); err != nil {
		return platform.InvRecord{}, err
	}
	rem := s.adm.Deadline
	if dl, ok := ctx.Deadline(); ok {
		rem = time.Until(dl)
	}
	id := s.NextID()
	ch := make(chan waitResult, 1)
	s.mu.Lock()
	s.waiters[id] = ch
	s.waiting.Add(1)
	s.mu.Unlock()
	s.drv.Submit(func() {
		if err := s.ingestDeadline(id, app, in, rem); err != nil {
			s.deliver(id, waitResult{err: err})
		}
	})
	select {
	case res := <-ch:
		return res.rec, res.err
	case <-ctx.Done():
		// The invocation still runs to completion on the loop and keeps
		// its admission slot until then — abandoning the wait does not
		// free platform capacity.
		s.takeWaiter(id)
		return platform.InvRecord{}, ctx.Err()
	}
}

// Stats is the /stats snapshot.
type Stats struct {
	Uptime          float64 `json:"uptime_s"`
	Ingested        int64   `json:"ingested"`
	Completed       int64   `json:"completed"`
	Abandoned       int64   `json:"abandoned"`
	Expired         int64   `json:"deadline_expired"`
	Shed            int64   `json:"shed"`
	InFlight        int64   `json:"in_flight"`
	Pending         int64   `json:"pending"`
	PeakPending     int64   `json:"peak_pending"`
	ReadyQueue      int64   `json:"ready_queue"`
	Degraded        bool    `json:"degraded"`
	DegradedEntries int64   `json:"degraded_entries,omitempty"`
	Draining        bool    `json:"draining,omitempty"`
	Goodput         float64 `json:"goodput_rps"` // completions per wall second
	LatencyMeanMs   float64 `json:"latency_mean_ms"`
	LatencyP50Ms    float64 `json:"latency_p50_ms,omitempty"`
	LatencyP99Ms    float64 `json:"latency_p99_ms,omitempty"`
	EventsFired     uint64  `json:"events_fired"`
	TraceEvents     uint64  `json:"trace_events,omitempty"`
	TraceBlocked    uint64  `json:"trace_blocked_flushes,omitempty"`

	// Elastic node group (zero / omitted on a fixed fleet). Nodes is the
	// current member count; the counters mirror the autoscale
	// controller's decisions (platform.ScaleStats).
	Nodes         int64 `json:"nodes"`
	NodesDraining int64 `json:"nodes_draining,omitempty"`
	PeakNodes     int64 `json:"peak_nodes,omitempty"`
	ScaleUps      int64 `json:"scale_ups,omitempty"`
	ScaleDowns    int64 `json:"scale_downs,omitempty"`
}

// Snapshot assembles the current Stats from the atomic counters.
func (s *Server) Snapshot() Stats {
	up := time.Since(s.startAt).Seconds()
	done := s.completed.Load()
	st := Stats{
		Uptime:          up,
		Ingested:        s.ingested.Load(),
		Completed:       done,
		Abandoned:       s.abandoned.Load(),
		Expired:         s.expired.Load(),
		Shed:            s.shed.Load(),
		Pending:         s.pending.Load(),
		PeakPending:     s.peakPending.Load(),
		ReadyQueue:      s.readyDepth.Load(),
		Degraded:        s.degraded.Load(),
		DegradedEntries: s.degradedEntries.Load(),
		Draining:        s.draining.Load(),
		EventsFired:     s.drv.Fired(),
	}
	st.InFlight = st.Ingested - st.Completed - st.Abandoned - st.Expired
	if up > 0 {
		st.Goodput = float64(done) / up
	}
	if done > 0 {
		st.LatencyMeanMs = float64(s.latMicro.Load()) / float64(done) / 1e3
		s.histMu.Lock()
		st.LatencyP50Ms = s.hist.Quantile(0.5) * 1e3
		st.LatencyP99Ms = s.hist.Quantile(0.99) * 1e3
		s.histMu.Unlock()
	}
	if t, ok := s.cfg.Tracer.(*obs.StreamTracer); ok && t != nil {
		st.TraceEvents = t.Count()
		st.TraceBlocked = t.BlockedFlushes()
	}
	sc := s.p.ScaleStats()
	st.Nodes = sc.Nodes
	st.NodesDraining = sc.Draining
	st.ScaleUps = sc.ScaleUps
	st.ScaleDowns = sc.ScaleDowns
	if sc.ScaleUps+sc.ScaleDowns > 0 {
		st.PeakNodes = sc.PeakNodes
	}
	return st
}

// Stop runs the two-phase shutdown: phase one stops admitting (new
// requests are rejected with ErrDraining / HTTP 503) and shuts the
// ingress down; phase two waits for every admitted invocation to
// finish, with both phases sharing the DrainTimeout budget. It then
// stops the event loop, fails any waiters whose invocation never
// finished, and returns the aggregated serving result plus a
// structured DrainReport. The error is non-nil only for Stop-before-
// Start; an unclean drain is reported in the DrainReport, not as an
// error. The server cannot be restarted.
func (s *Server) Stop(ctx context.Context) (*platform.Result, DrainReport, error) {
	if !s.started.Load() {
		return nil, DrainReport{}, errors.New("serve: Stop before Start")
	}
	start := time.Now()
	deadline := start.Add(s.cfg.DrainTimeout)
	s.draining.Store(true)
	rep := DrainReport{InFlightAtStop: s.pending.Load(), HTTPClean: true}
	if s.httpSrv != nil {
		sctx, cancel := context.WithDeadline(ctx, deadline)
		rep.HTTPClean = s.httpSrv.Shutdown(sctx) == nil
		cancel()
	}
	for s.pending.Load() > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(2 * time.Millisecond)
	}
	rep.Remaining = s.pending.Load()
	rep.Drained = rep.Remaining == 0
	s.drv.Stop()
	<-s.loopDone
	res := s.p.StopServing()
	// The loop is gone: no invocation can finish anymore. Fail whoever is
	// still waiting instead of leaving them blocked forever.
	s.mu.Lock()
	for id, ch := range s.waiters {
		ch <- waitResult{err: fmt.Errorf("serve: invocation %d unfinished at shutdown", id)}
		delete(s.waiters, id)
		rep.FailedWaiters++
	}
	s.waiting.Store(0)
	s.mu.Unlock()
	rep.WaitedSeconds = time.Since(start).Seconds()
	return res, rep, nil
}

// --- HTTP handlers ---

// invokeResponse is the POST /invoke/{fn} reply.
type invokeResponse struct {
	ID        int64   `json:"id"`
	App       string  `json:"app"`
	LatencyMs float64 `json:"latency_ms,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	Node      int     `json:"node,omitempty"`
	ColdStart bool    `json:"cold_start,omitempty"`
	Accepted  bool    `json:"accepted,omitempty"` // nowait mode: queued, not awaited
}

func (s *Server) handleInvoke(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("fn")
	spec, ok := function.ByName(app)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown function %q", app), http.StatusNotFound)
		return
	}
	q, err := parseInvokeQuery(spec, r.URL.RawQuery)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if q.nowait {
		if err := s.admit(); err != nil {
			s.rejectAdmission(w, err)
			return
		}
		id, rem := s.NextID(), s.adm.Deadline
		if q.deadline > 0 {
			rem = q.deadline
		}
		s.drv.Submit(func() { _ = s.ingestDeadline(id, app, q.in, rem) })
		writeInvokeResponse(w, http.StatusAccepted, invokeResponse{ID: id, App: app, Accepted: true})
		return
	}
	ctx := r.Context()
	if q.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.deadline)
		defer cancel()
	}
	rec, err := s.Invoke(ctx, app, q.in)
	if err != nil {
		if errors.Is(err, ErrShed) || errors.Is(err, ErrDraining) {
			s.rejectAdmission(w, err)
			return
		}
		status := http.StatusInternalServerError
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrDeadlineExpired) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeInvokeResponse(w, http.StatusOK, invokeResponse{
		ID:        int64(rec.Inv.ID),
		App:       app,
		LatencyMs: rec.Latency * 1e3,
		Speedup:   rec.Speedup,
		Node:      rec.Inv.NodeID,
		ColdStart: rec.Inv.ColdStart,
	})
}

// rejectAdmission writes the HTTP mapping of an admission error: 429
// with a Retry-After hint for a shed, 503 while draining.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrDraining) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	secs := int64(s.adm.RetryAfter+time.Second-1) / int64(time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	http.Error(w, err.Error(), http.StatusTooManyRequests)
}

// invokeQuery is what POST /invoke/{fn} reads from its query string.
type invokeQuery struct {
	in       function.Input
	deadline time.Duration // ?deadline_ms=; 0 when the request gave none
	nowait   bool
}

// The query keys of an invoke, and where parseInvokeQuery keeps each
// one's value.
const (
	keySize = iota
	keySeed
	keyDeadline
	keyNowait
)

var invokeKeys = [...]string{keySize: "size", keySeed: "seed", keyDeadline: "deadline_ms", keyNowait: "nowait"}

// parseInvokeQuery reads the four keys of an invoke from the raw query in
// one pass, by url.ParseQuery's rules: pairs split at '&', a pair that
// holds a ';' or a bad escape is dropped, the first surviving value of a
// key is the key's value, and an empty value reads as an absent key. Only
// a key or value with a '%' or a '+' in it pays for url.QueryUnescape.
//
// Size defaults to the bottom of the app's dataset range; seed defaults
// to the clock so repeated unseeded invokes vary like real content. A
// size or deadline the platform cannot finish is refused here: a NaN or
// infinite size becomes a NaN or infinite duration, and an invocation
// that completes at +Inf holds its admission slot for good.
func parseInvokeQuery(spec *function.Spec, raw string) (invokeQuery, error) {
	var (
		vals [len(invokeKeys)]string
		set  [len(invokeKeys)]bool
	)
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := queryUnescape(key)
		if !ok {
			continue
		}
		i := slices.Index(invokeKeys[:], key)
		if i < 0 || set[i] {
			continue
		}
		if val, ok = queryUnescape(val); ok {
			vals[i], set[i] = val, true
		}
	}

	lo, _ := spec.SizeRange()
	q := invokeQuery{in: function.Input{Size: lo}, nowait: vals[keyNowait] != ""}
	if v := vals[keySize]; v != "" {
		size, err := strconv.ParseFloat(v, 64)
		if err != nil || !validSize(size) {
			return q, fmt.Errorf("bad size %q", v)
		}
		q.in.Size = size
	}
	if v := vals[keySeed]; v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return q, fmt.Errorf("bad seed %q", v)
		}
		q.in.Seed = seed
	} else {
		q.in.Seed = uint64(time.Now().UnixNano())
	}
	if v := vals[keyDeadline]; v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		// At least a nanosecond and less than time.Duration's range; NaN is
		// neither.
		ns := ms * float64(time.Millisecond)
		if err != nil || !(ns >= 1 && ns < math.MaxInt64) {
			return q, fmt.Errorf("bad deadline_ms %q", v)
		}
		q.deadline = time.Duration(ns)
	}
	return q, nil
}

// queryUnescape is url.QueryUnescape for the strings that need it.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	s, err := url.QueryUnescape(s)
	return s, err == nil
}

// validSize reports whether an input size is one the function models
// can turn into a finite demand: positive, and neither NaN nor +Inf.
func validSize(size float64) bool { return size > 0 && !math.IsInf(size, 1) }

// Invoke replies are written by hand into pooled buffers: the reply is
// five scalars and a name, and encoding/json paid an encoder, a boxed
// struct and an indenting pass for each (with the three query parses, 22
// allocations an acknowledged invoke; TestInvokeHandlerAllocs).
var (
	jsonContentType = []string{"application/json"} // shared by every reply; net/http only reads it
	replyBufs       = sync.Pool{New: func() any { return new([]byte) }}
)

// writeInvokeResponse answers an invoke with status and resp as one JSON
// object, or with 500 if resp holds a number JSON cannot carry.
func writeInvokeResponse(w http.ResponseWriter, status int, resp invokeResponse) {
	bp := replyBufs.Get().(*[]byte)
	b, ok := appendInvokeResponse((*bp)[:0], resp)
	if ok {
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(status)
		_, _ = w.Write(b) // the client went away; nothing to tell it
	} else {
		http.Error(w, fmt.Sprintf("invocation %d finished with a non-finite latency or speedup", resp.ID), http.StatusInternalServerError)
	}
	if cap(b) <= 1<<10 { // a reply is ~100 bytes; do not let one long name pin more
		*bp = b
		replyBufs.Put(bp)
	}
}

// appendInvokeResponse appends resp as a JSON object and a newline, with
// invokeResponse's field names and omitempty rules, so it decodes to what
// encoding/json's rendering of resp decodes to. It reports false, and
// appends nothing usable, when a float is NaN or infinite.
func appendInvokeResponse(b []byte, resp invokeResponse) ([]byte, bool) {
	if !finite(resp.LatencyMs) || !finite(resp.Speedup) {
		return b, false
	}
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, resp.ID, 10)
	b = append(b, `,"app":`...)
	b = appendJSONString(b, resp.App)
	if resp.LatencyMs != 0 {
		b = append(b, `,"latency_ms":`...)
		b = appendJSONFloat(b, resp.LatencyMs)
	}
	if resp.Speedup != 0 {
		b = append(b, `,"speedup":`...)
		b = appendJSONFloat(b, resp.Speedup)
	}
	if resp.Node != 0 {
		b = append(b, `,"node":`...)
		b = strconv.AppendInt(b, int64(resp.Node), 10)
	}
	if resp.ColdStart {
		b = append(b, `,"cold_start":true`...)
	}
	if resp.Accepted {
		b = append(b, `,"accepted":true`...)
	}
	return append(b, "}\n"...), true
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSONFloat writes a finite float the way encoding/json does:
// shortest digits that round-trip, exponent form outside [1e-6, 1e21).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	return strconv.AppendFloat(b, f, format, -1, 64)
}

// appendJSONString writes s quoted. Function names are plain ASCII; one
// that is not goes through encoding/json for its escapes.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(b, quoted...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// registryEntry is one function in the GET /registry listing.
type registryEntry struct {
	Name      string  `json:"name"`
	LongName  string  `json:"long_name"`
	Class     string  `json:"class"`
	CPU       int64   `json:"user_cpu_millicores"`
	Mem       int64   `json:"user_mem_mb"`
	ColdStart float64 `json:"cold_start_s"`
	SizeUnit  string  `json:"size_unit"`
	SizeLo    float64 `json:"size_lo"`
	SizeHi    float64 `json:"size_hi"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, _ *http.Request) {
	names := function.Names()
	out := make([]registryEntry, 0, len(names))
	for _, name := range names {
		spec, ok := function.ByName(name)
		if !ok {
			continue
		}
		lo, hi := spec.SizeRange()
		out = append(out, registryEntry{
			Name:      spec.Name,
			LongName:  spec.LongName,
			Class:     spec.Class.String(),
			CPU:       int64(spec.UserAlloc.CPU),
			Mem:       int64(spec.UserAlloc.Mem),
			ColdStart: spec.ColdStart,
			SizeUnit:  spec.SizeUnit(),
			SizeLo:    lo,
			SizeHi:    hi,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Snapshot())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
