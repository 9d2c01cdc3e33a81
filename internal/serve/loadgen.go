package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"libra/internal/clock"
	"libra/internal/function"
)

// LoadGenConfig configures the built-in open-loop generator.
type LoadGenConfig struct {
	// App is the function to invoke (must resolve via function.ByName).
	App string
	// Rate is the offered load in requests per second.
	Rate float64
	// Duration is how long to generate, in seconds of driver time;
	// zero or negative means "until Stop".
	Duration float64
	// Period is the injection batch interval in seconds (default 2 ms:
	// at 100k req/s that is 200 ingests per tick, fine-grained enough
	// that the offered load looks smooth to a 50 ms-scale function).
	Period float64
	// Seed drives input sampling.
	Seed int64
}

// LoadGen injects invocations into a Server at a fixed rate, open-loop:
// the offered load never waits for completions, exactly like the
// Poisson replay sets the simulations use. It runs as a periodic ticker
// on the server's event loop, so injection interleaves deterministically
// with the platform's own events (under a manual time source the whole
// run is a replay).
type LoadGen struct {
	srv  *Server
	cfg  LoadGenConfig
	spec *function.Spec
	rng  *rand.Rand

	ticker  *clock.Ticker
	ticks   int64 // ticks fired: ticks × Period is the scheduled time since start
	offered int64 // injections attempted so far, shed and failed included

	injected atomic.Int64
	failed   atomic.Int64
	shed     atomic.Int64
	done     chan struct{}
}

// StartLoad attaches an open-loop generator to the server. The first
// batch fires one period after the call. Call after Server.Start.
func (s *Server) StartLoad(cfg LoadGenConfig) (*LoadGen, error) {
	spec, ok := function.ByName(cfg.App)
	if !ok {
		return nil, fmt.Errorf("serve: loadgen: unknown function %q", cfg.App)
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("serve: loadgen: rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Period <= 0 {
		cfg.Period = 0.002
	}
	lg := &LoadGen{
		srv:  s,
		cfg:  cfg,
		spec: spec,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		done: make(chan struct{}),
	}
	s.drv.Submit(func() {
		lg.ticker = clock.Every(s.drv, cfg.Period, lg.tick)
	})
	return lg, nil
}

// tick runs on the loop goroutine: it injects what the run owes by the
// end of this period and has not offered yet, and retires the generator
// with the tick that reaches Duration. A Duration that ends mid-period
// owes only up to the deadline, so total offered load is Rate×Duration
// instead of overshooting by up to one full period.
//
// Time is counted in ticks fired, never read from the driver: the k-th
// tick was scheduled k periods after the start however late the loop
// pops it, and the instant StartLoad's submission happened to land on
// has no say. (Comparing Now() with a deadline stamped there lost a
// whole request whenever the ticker's accumulated fire time came out
// one ulp past it.) The 1e-9 keeps a product that should be a whole
// number from flooring to the one below.
func (lg *LoadGen) tick() {
	lg.ticks++
	elapsed := float64(lg.ticks) * lg.cfg.Period
	last := lg.cfg.Duration > 0 && elapsed >= lg.cfg.Duration
	if last {
		elapsed = lg.cfg.Duration
	}
	n := int64(math.Floor(lg.cfg.Rate*elapsed+1e-9)) - lg.offered
	lg.offered += n
	for i := int64(0); i < n; i++ {
		// The generator is open-loop but not admission-exempt: offered
		// load beyond the pending budget is shed here, exactly like HTTP
		// callers see 429s.
		if err := lg.srv.admit(); err != nil {
			lg.shed.Add(1)
			continue
		}
		id := lg.srv.NextID()
		if err := lg.srv.ingestDeadline(id, lg.cfg.App, lg.spec.SampleInput(lg.rng), lg.srv.adm.Deadline); err != nil {
			lg.failed.Add(1)
			continue
		}
		lg.injected.Add(1)
	}
	if last {
		lg.stopLocked()
	}
}

// stopLocked retires the ticker; must run on the loop goroutine.
func (lg *LoadGen) stopLocked() {
	if lg.ticker != nil {
		lg.ticker.Stop()
		lg.ticker = nil
		close(lg.done)
	}
}

// Stop retires the generator from any goroutine. In-flight invocations
// are unaffected. No-op if already finished.
func (lg *LoadGen) Stop() {
	lg.srv.drv.Submit(func() {
		if lg.ticker != nil {
			lg.stopLocked()
		}
	})
}

// Done is closed when the generator retires (deadline reached or Stop).
func (lg *LoadGen) Done() <-chan struct{} { return lg.done }

// Injected returns how many invocations the generator has pushed in.
func (lg *LoadGen) Injected() int64 { return lg.injected.Load() }

// Failed returns how many ingests errored (should stay 0).
func (lg *LoadGen) Failed() int64 { return lg.failed.Load() }

// Shed returns how many injections the admission budget rejected.
func (lg *LoadGen) Shed() int64 { return lg.shed.Load() }
