// Package rpc provides the request/response messaging substrate used for
// OASIS callback validation and cross-domain invocation (Sects. 3-5 of the
// paper). Two interchangeable transports are provided: an in-process
// loopback (with deterministic fault injection, used by tests and the
// experiment harness) and a TCP transport (cmd/oasisd) so that multi-domain
// sessions can also run across processes.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by transports.
var (
	// ErrUnknownService is returned when no handler is registered for
	// the target service.
	ErrUnknownService = errors.New("unknown service")
	// ErrConnBroken marks a connection whose stream state can no longer
	// be trusted (a lost, late, or skewed response frame). The client
	// drops the connection and redials; callers may retry idempotent
	// work through a ResilientCaller.
	ErrConnBroken = errors.New("rpc: connection broken")
	// ErrCircuitOpen is returned by a ResilientCaller without touching
	// the transport while the target service's circuit breaker is open.
	ErrCircuitOpen = errors.New("rpc: circuit open")
	// ErrCallTimeout is returned by a ResilientCaller when one attempt
	// exceeds its per-call deadline.
	ErrCallTimeout = errors.New("rpc: call timed out")
)

// IsUnavailable reports whether err indicates the target service could not
// be reached or answered unusably (dial/deadline/stream failures, injected
// faults, open circuits) as opposed to an application-level *RemoteError,
// which proves the remote handler ran. Retry, breaker accounting and the
// fail-safe degraded-validation path all key off this distinction.
func IsUnavailable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	return !errors.As(err, &re)
}

// RemoteError wraps an application-level error returned by the remote
// handler, preserving the remote message across the wire.
type RemoteError struct {
	Service string
	Method  string
	Msg     string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s.%s: %s", e.Service, e.Method, e.Msg)
}

// Handler serves calls addressed to one service. The method name is the
// service-level operation (e.g. "activate", "validate", "invoke").
type Handler func(method string, body []byte) ([]byte, error)

// Caller issues calls to named services. Both transports implement it.
type Caller interface {
	Call(service, method string, body []byte) ([]byte, error)
}

// Fault decides whether a call should fail artificially; returning a
// non-nil error aborts the call before it reaches the handler.
type Fault func(service, method string) error

// Loopback is an in-process transport: handlers registered on it are
// invoked synchronously by Call. Latency can be simulated per call and
// faults injected deterministically. Besides call counts it tracks the
// serialized bytes moved in each direction, so codec-overhead harnesses
// can compare wire sizes without a TCP socket in the loop.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	fault    Fault
	latency  time.Duration
	calls    uint64
	bytesOut uint64 // request body bytes handed to handlers
	bytesIn  uint64 // response body bytes returned by handlers
}

var _ Caller = (*Loopback)(nil)

// NewLoopback creates an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{handlers: make(map[string]Handler)}
}

// Register installs the handler for a service name, replacing any previous
// registration.
func (l *Loopback) Register(service string, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[service] = h
}

// Deregister removes a service (used to simulate a service going down).
func (l *Loopback) Deregister(service string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.handlers, service)
}

// SetFault installs a fault injector (nil clears it).
func (l *Loopback) SetFault(f Fault) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fault = f
}

// SetLatency simulates a per-call network delay.
func (l *Loopback) SetLatency(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.latency = d
}

// Calls reports the number of calls attempted (including faulted ones);
// the experiment harness uses this to count callback traffic.
func (l *Loopback) Calls() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.calls
}

// Bytes reports the serialized body bytes moved through the transport:
// sent is request bytes handed to handlers, received is response bytes
// returned by them. Faulted and unknown-service calls count their request
// bytes (they were serialized and "sent") but no response.
func (l *Loopback) Bytes() (sent, received uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.bytesOut, l.bytesIn
}

// Call implements Caller.
func (l *Loopback) Call(service, method string, body []byte) ([]byte, error) {
	l.mu.Lock()
	l.calls++
	l.bytesOut += uint64(len(body))
	h, ok := l.handlers[service]
	fault := l.fault
	latency := l.latency
	l.mu.Unlock()

	if latency > 0 {
		time.Sleep(latency)
	}
	if fault != nil {
		if err := fault(service, method); err != nil {
			return nil, err
		}
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownService, service)
	}
	out, err := h(method, body)
	if err != nil {
		return nil, &RemoteError{Service: service, Method: method, Msg: err.Error()}
	}
	l.mu.Lock()
	l.bytesIn += uint64(len(out))
	l.mu.Unlock()
	return out, nil
}
