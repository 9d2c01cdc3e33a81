package serve

import (
	"errors"
	"fmt"
	"time"
)

// ErrShed is returned by Invoke when the admission budget is exhausted:
// the request was rejected before touching the platform. The HTTP
// ingress maps it to 429 with a Retry-After hint.
var ErrShed = errors.New("serve: admission budget exhausted")

// ErrDraining is returned by Invoke once Stop has begun: the server no
// longer admits new work. The HTTP ingress maps it to 503.
var ErrDraining = errors.New("serve: draining, not admitting new work")

// ErrDeadlineExpired is returned by Invoke when the invocation's
// deadline passed while it was still queued — it was dropped instead of
// executed late. The HTTP ingress maps it to 504.
var ErrDeadlineExpired = errors.New("serve: deadline expired while queued")

// AdmissionConfig bounds what the ingress accepts so overload degrades
// into shedding instead of unbounded queue growth (DESIGN.md §9). The
// zero value disables every limit — the server behaves exactly as it did
// before admission control existed.
type AdmissionConfig struct {
	// MaxPending caps admitted-but-unfinished invocations (queued +
	// executing, across HTTP and the load generator). Admissions beyond
	// the cap are shed with ErrShed / HTTP 429. 0 disables the budget.
	MaxPending int
	// Deadline is the default per-request deadline: an invocation still
	// queued when it passes is dropped (ErrDeadlineExpired / HTTP 504)
	// instead of executed late. An HTTP request, synchronous or nowait,
	// overrides it via ?deadline_ms=; Invoke via its context's deadline. 0
	// disables deadlines.
	Deadline time.Duration
	// DegradeHi is the ready-queue depth (capacity-blocked invocations)
	// at which the platform enters degraded mode: new dispatches receive
	// no harvest acceleration, protecting user-demand capacity. 0
	// disables degraded mode.
	DegradeHi int
	// DegradeLo is the depth at which degraded mode exits (hysteresis).
	// 0 defaults to DegradeHi/2. Must not exceed DegradeHi.
	DegradeLo int
	// RetryAfter is the backoff hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
}

// Validate reports the first invalid field by name. The zero config is
// valid (all limits disabled).
func (c AdmissionConfig) Validate() error {
	if c.MaxPending < 0 {
		return fmt.Errorf("serve: MaxPending must be non-negative (got %d; 0 disables the budget)", c.MaxPending)
	}
	if c.Deadline < 0 {
		return fmt.Errorf("serve: Deadline must be non-negative (got %v; 0 disables deadlines)", c.Deadline)
	}
	if c.DegradeHi < 0 {
		return fmt.Errorf("serve: DegradeHi must be non-negative (got %d; 0 disables degraded mode)", c.DegradeHi)
	}
	if c.DegradeLo < 0 {
		return fmt.Errorf("serve: DegradeLo must be non-negative (got %d)", c.DegradeLo)
	}
	if c.DegradeLo > 0 && c.DegradeHi == 0 {
		return fmt.Errorf("serve: DegradeLo (%d) needs DegradeHi to be set", c.DegradeLo)
	}
	if c.DegradeHi > 0 && c.DegradeLo > c.DegradeHi {
		return fmt.Errorf("serve: DegradeLo (%d) must not exceed DegradeHi (%d)", c.DegradeLo, c.DegradeHi)
	}
	if c.RetryAfter < 0 {
		return fmt.Errorf("serve: RetryAfter must be non-negative (got %v; 0 selects the 1s default)", c.RetryAfter)
	}
	return nil
}

// withDefaults resolves the zero-value sentinels. The resolved
// DegradeLo is floored at 1: DegradeHi/2 truncates to 0 when
// DegradeHi == 1, which would re-trigger the "0 means default" sentinel
// and leave the hysteresis band undefined.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.DegradeHi > 0 && c.DegradeLo == 0 {
		c.DegradeLo = c.DegradeHi / 2
		if c.DegradeLo < 1 {
			c.DegradeLo = 1
		}
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// DrainReport is Stop's structured account of the two-phase shutdown:
// what was still in flight when draining began, whether the ingress and
// the platform drained before the deadline, and what was left behind.
type DrainReport struct {
	// InFlightAtStop is the pending count when draining began.
	InFlightAtStop int64 `json:"in_flight_at_stop"`
	// HTTPClean reports the ingress shut down (handlers finished) before
	// the drain deadline. True when HTTP was disabled.
	HTTPClean bool `json:"http_clean"`
	// Drained reports every admitted invocation finished (completed,
	// abandoned or expired) before the drain deadline.
	Drained bool `json:"drained"`
	// Remaining is the pending count when the event loop was stopped —
	// 0 on a clean drain.
	Remaining int64 `json:"remaining"`
	// FailedWaiters is how many synchronous callers were failed at loop
	// stop because their invocation never finished.
	FailedWaiters int `json:"failed_waiters"`
	// WaitedSeconds is the wall time the shutdown took.
	WaitedSeconds float64 `json:"waited_s"`
}

func (r DrainReport) String() string {
	state := "drained clean"
	if !r.Drained {
		state = fmt.Sprintf("UNDRAINED, %d left", r.Remaining)
	}
	return fmt.Sprintf("%s in %.1fs (%d in flight at stop, %d waiters failed)",
		state, r.WaitedSeconds, r.InFlightAtStop, r.FailedWaiters)
}
