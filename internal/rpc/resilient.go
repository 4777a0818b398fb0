package rpc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// BreakerState is the per-service circuit breaker state machine of a
// ResilientCaller: Closed (normal), Open (failing fast), HalfOpen (one
// probe in flight deciding whether to close again).
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int32(s))
	}
}

// DefaultIdempotent lists the methods a ResilientCaller retries by
// default: callback validation (the ECR path of Fig. 5) and other
// at-least-once-safe operations. Role activation and appointment issue
// side-effecting operations and are deliberately absent — a retry after an
// ambiguous failure could issue a second certificate.
func DefaultIdempotent() map[string]bool {
	return map[string]bool{
		"validate_rmc":   true,
		"validate_appt":  true,
		"validate_batch": true, // batch of the two validations above
		"end_session":    true, // deactivation is revoke-once idempotent
		"revoke":         true, // ditto; the ack may flip to false on a retry
		"publish":        true, // event relay delivery is at-least-once
	}
}

// ResilientConfig tunes a ResilientCaller. The zero value selects the
// defaults noted on each field.
type ResilientConfig struct {
	// CallTimeout bounds each attempt (0 = rely on the transport's own
	// deadline). Measured on the wall clock even when Now is injected.
	CallTimeout time.Duration
	// MaxAttempts is the total number of attempts for idempotent methods
	// (default 3). Non-idempotent methods always get exactly one.
	MaxAttempts int
	// BaseBackoff is the pre-jitter delay before the first retry,
	// doubling per attempt (default 10ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the pre-jitter backoff (default 500ms).
	MaxBackoff time.Duration
	// FailureThreshold is the consecutive transport-failure count that
	// opens a service's breaker (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker waits before half-opening for
	// a probe (default 2s).
	Cooldown time.Duration
	// Idempotent marks the methods safe to retry (nil selects
	// DefaultIdempotent()).
	Idempotent map[string]bool
	// Sleep, Now and Rand are test/experiment seams; they default to
	// time.Sleep, time.Now and math/rand.Float64.
	Sleep func(time.Duration)
	Now   func() time.Time
	Rand  func() float64
	// Obs, when set, registers the caller's counters and per-method
	// call-latency histograms (rpc_call_ns{service=...,method=...}) with
	// the observability registry. Nil disables metric export and all
	// per-call timing.
	Obs *obs.Registry
	// Trace, when set, records every circuit-breaker state transition
	// (closed/open/half-open) as a "breaker" trace event.
	Trace *obs.Tracer
}

// ResilientMetrics is a snapshot of a ResilientCaller's counters.
type ResilientMetrics struct {
	Calls     uint64 // Call invocations
	Attempts  uint64 // attempts that reached the transport
	Retries   uint64 // attempts beyond the first
	Failures  uint64 // transport-level attempt failures
	FastFails uint64 // calls rejected by an open breaker
	Opens     uint64 // breaker transitions to open
}

// ResilientCaller decorates another Caller with per-call deadlines,
// bounded retries (exponential backoff with equal jitter) for idempotent
// methods, and a per-service circuit breaker that trips after consecutive
// transport failures and half-opens on a probe after a cooldown.
//
// Application-level *RemoteError results are passed through untouched:
// they prove the remote service is up, so they never trip the breaker and
// are never retried.
type ResilientCaller struct {
	next Caller
	cfg  ResilientConfig

	calls     atomic.Uint64
	attempts  atomic.Uint64
	retries   atomic.Uint64
	failures  atomic.Uint64
	fastFails atomic.Uint64
	opens     atomic.Uint64

	mu       sync.Mutex
	breakers map[string]*breaker

	// hists caches per-(service,method) latency histogram handles so the
	// instrumented call path does one sync.Map load, not a registry
	// lookup with name formatting.
	hists sync.Map // "service\x00method" -> *obs.Histogram
}

var _ Caller = (*ResilientCaller)(nil)

// NewResilientCaller wraps next with the given policy.
func NewResilientCaller(next Caller, cfg ResilientConfig) *ResilientCaller {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 10 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 500 * time.Millisecond
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Idempotent == nil {
		cfg.Idempotent = DefaultIdempotent()
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64 //nolint:gosec // jitter, not crypto
	}
	r := &ResilientCaller{
		next:     next,
		cfg:      cfg,
		breakers: make(map[string]*breaker),
	}
	if reg := cfg.Obs; reg != nil {
		reg.Func("rpc_calls_total", r.calls.Load)
		reg.Func("rpc_attempts_total", r.attempts.Load)
		reg.Func("rpc_retries_total", r.retries.Load)
		reg.Func("rpc_failures_total", r.failures.Load)
		reg.Func("rpc_fastfails_total", r.fastFails.Load)
		reg.Func("rpc_breaker_opens_total", r.opens.Load)
	}
	return r
}

// Call implements Caller. With a registry configured, the end-to-end call
// latency (attempts, backoff and fast-fails included) lands in a
// per-(service,method) histogram; without one the timing is skipped
// entirely so the uninstrumented path stays at its original cost.
func (r *ResilientCaller) Call(service, method string, body []byte) ([]byte, error) {
	if r.cfg.Obs == nil {
		return r.call(service, method, body)
	}
	start := time.Now()
	out, err := r.call(service, method, body)
	r.callHist(service, method).ObserveSince(start)
	return out, err
}

// callHist returns the latency histogram for one (service, method) pair.
func (r *ResilientCaller) callHist(service, method string) *obs.Histogram {
	key := service + "\x00" + method
	if h, ok := r.hists.Load(key); ok {
		return h.(*obs.Histogram)
	}
	h := r.cfg.Obs.Histogram(fmt.Sprintf("rpc_call_ns{service=%q,method=%q}", service, method), nil)
	actual, _ := r.hists.LoadOrStore(key, h)
	return actual.(*obs.Histogram)
}

func (r *ResilientCaller) call(service, method string, body []byte) ([]byte, error) {
	r.calls.Add(1)
	br := r.breaker(service)
	attempts := 1
	if r.cfg.Idempotent[method] {
		attempts = r.cfg.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if !br.allow(r.cfg.Now(), r.cfg.Cooldown) {
			r.fastFails.Add(1)
			if lastErr != nil {
				return nil, fmt.Errorf("%s.%s: %w (last failure: %v)", service, method, ErrCircuitOpen, lastErr)
			}
			return nil, fmt.Errorf("%s.%s: %w", service, method, ErrCircuitOpen)
		}
		r.attempts.Add(1)
		if attempt > 0 {
			r.retries.Add(1)
		}
		out, err := r.attempt(service, method, body)
		if !IsUnavailable(err) {
			br.success()
			return out, err
		}
		r.failures.Add(1)
		if br.failure(r.cfg.Now(), r.cfg.FailureThreshold) {
			r.opens.Add(1)
		}
		lastErr = err
		if attempt < attempts-1 {
			r.cfg.Sleep(r.backoff(attempt))
		}
	}
	return nil, lastErr
}

// attempt runs one transport call under the per-call deadline. On timeout
// the underlying call keeps running in its goroutine (the transport's own
// deadline, if any, bounds it); its eventual result is discarded.
func (r *ResilientCaller) attempt(service, method string, body []byte) ([]byte, error) {
	if r.cfg.CallTimeout <= 0 {
		return r.next.Call(service, method, body)
	}
	type result struct {
		out []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		out, err := r.next.Call(service, method, body)
		ch <- result{out, err}
	}()
	timer := time.NewTimer(r.cfg.CallTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.out, res.err
	case <-timer.C:
		return nil, fmt.Errorf("%s.%s after %v: %w", service, method, r.cfg.CallTimeout, ErrCallTimeout)
	}
}

// backoff computes the sleep before retry attempt+1: exponential from
// BaseBackoff, capped at MaxBackoff, with equal jitter (half fixed, half
// random) so synchronized retriers fan out.
func (r *ResilientCaller) backoff(attempt int) time.Duration {
	d := r.cfg.BaseBackoff << uint(min(attempt, 20))
	if d > r.cfg.MaxBackoff || d <= 0 {
		d = r.cfg.MaxBackoff
	}
	return d/2 + time.Duration(r.cfg.Rand()*float64(d/2))
}

// BreakerState reports the breaker state for one service (Closed if the
// service has never been called).
func (r *ResilientCaller) BreakerState(service string) BreakerState {
	r.mu.Lock()
	br := r.breakers[service]
	r.mu.Unlock()
	if br == nil {
		return BreakerClosed
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	return br.state
}

// Metrics returns a snapshot of the caller's counters.
func (r *ResilientCaller) Metrics() ResilientMetrics {
	return ResilientMetrics{
		Calls:     r.calls.Load(),
		Attempts:  r.attempts.Load(),
		Retries:   r.retries.Load(),
		Failures:  r.failures.Load(),
		FastFails: r.fastFails.Load(),
		Opens:     r.opens.Load(),
	}
}

func (r *ResilientCaller) breaker(service string) *breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	br := r.breakers[service]
	if br == nil {
		br = &breaker{}
		if tr := r.cfg.Trace; tr != nil {
			br.notify = func(from, to BreakerState, detail string) {
				tr.Record(obs.TraceEvent{
					Kind:    "breaker",
					Service: service,
					Outcome: to.String(),
					Detail:  fmt.Sprintf("%s -> %s: %s", from, to, detail),
				})
			}
		}
		r.breakers[service] = br
	}
	return br
}

// breaker is one service's circuit state.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	failures int // consecutive transport failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	// notify observes state transitions (set once at construction, called
	// under mu with from != to).
	notify func(from, to BreakerState, detail string)
}

// transition moves the state machine and reports the change.
func (b *breaker) transition(to BreakerState, detail string) {
	from := b.state
	b.state = to
	if b.notify != nil && from != to {
		b.notify(from, to, detail)
	}
}

// allow reports whether a call may proceed, transitioning Open→HalfOpen
// once the cooldown has elapsed (the transitioning caller is the probe).
func (b *breaker) allow(now time.Time, cooldown time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) >= cooldown {
			b.transition(BreakerHalfOpen, "cooldown elapsed, probing")
			b.probing = true
			return true
		}
		return false
	case BreakerHalfOpen:
		// Only the probe is in flight; everyone else fails fast until
		// the verdict is in.
		return false
	default:
		return true
	}
}

// success records a call that reached the service; any state closes.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.transition(BreakerClosed, "call reached the service")
	b.failures = 0
	b.probing = false
}

// failure records a transport failure, reporting whether this transition
// opened the breaker.
func (b *breaker) failure(now time.Time, threshold int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		// The probe failed: back to open for another cooldown.
		b.transition(BreakerOpen, "half-open probe failed")
		b.openedAt = now
		b.probing = false
		return true
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= threshold {
		b.transition(BreakerOpen, fmt.Sprintf("%d consecutive transport failures", b.failures))
		b.openedAt = now
		return true
	}
	return false
}
