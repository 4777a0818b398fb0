package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/rpc"
)

// failAll is a network partition between the caller and service: every
// call to it fails until SetFault(nil) heals the partition.
func failAll(service string) rpc.Fault {
	return func(svc, method string) error {
		if svc != service {
			return nil
		}
		return fmt.Errorf("injected partition: %s.%s", svc, method)
	}
}

// failNTimes fails the first n calls to service, then passes everything.
func failNTimes(service string, n int) rpc.Fault {
	var mu sync.Mutex
	return func(svc, method string) error {
		if svc != service {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if n > 0 {
			n--
			return fmt.Errorf("injected fault: %s.%s", svc, method)
		}
		return nil
	}
}

// resilientWorld models the cross-process deployment shape for fault
// injection: issuer (login) and consumer (guard) live on separate event
// brokers — revocations do NOT propagate between them, exactly like two
// oasisd processes without a relay — and the consumer reaches the issuer
// through a ResilientCaller over the fault-injectable loopback. The
// consumer caches validations with a revalidation deadline, a bounded
// stale-grace window, and a heartbeat monitor watching issuer liveness.
type resilientWorld struct {
	clk      *clock.Simulated
	bus      *rpc.Loopback
	rc       *rpc.ResilientCaller
	issuerBr *event.Broker
	guardBr  *event.Broker
	hb       *event.HeartbeatMonitor
	login    *Service
	guard    *Service
}

const (
	testRevalidateAfter = time.Minute
	testStaleGrace      = 5 * time.Minute
	testHeartbeatDeadln = 2 * time.Minute
	testCooldown        = 30 * time.Second
)

func newResilientWorld(t *testing.T) *resilientWorld {
	t.Helper()
	w := &resilientWorld{
		clk:      clock.NewSimulated(time.Date(2001, 11, 12, 9, 0, 0, 0, time.UTC)),
		bus:      rpc.NewLoopback(),
		issuerBr: event.NewBroker(),
		guardBr:  event.NewBroker(),
	}
	t.Cleanup(w.issuerBr.Close)
	t.Cleanup(w.guardBr.Close)
	w.hb = event.NewHeartbeatMonitor(w.guardBr, w.clk, testHeartbeatDeadln)
	t.Cleanup(w.hb.Close)
	w.rc = rpc.NewResilientCaller(w.bus, rpc.ResilientConfig{
		MaxAttempts:      3,
		FailureThreshold: 3,
		Cooldown:         testCooldown,
		Sleep:            func(time.Duration) {},
		Now:              w.clk.Now,
	})

	login, err := NewService(Config{
		Name:   "login",
		Policy: mustPolicy(`login.user <- env ok.`),
		Broker: w.issuerBr,
		Clock:  w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(login.Close)
	alwaysTrue(login, "ok")
	w.bus.Register("login", login.Handler())
	w.login = login

	guard, err := NewService(Config{
		Name:             "guard",
		Policy:           mustPolicy(`auth enter <- login.user.`),
		Broker:           w.guardBr,
		Caller:           w.rc,
		Clock:            w.clk,
		CacheValidations: true,
		RevalidateAfter:  testRevalidateAfter,
		StaleGrace:       testStaleGrace,
		Heartbeats:       w.hb,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(guard.Close)
	w.guard = guard
	return w
}

// enter activates login.user for a fresh session and returns the
// credential bundle plus the issued serial.
func (w *resilientWorld) enter(t *testing.T) (string, Presented, uint64) {
	t.Helper()
	sess, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	rmc, err := w.login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	return sess.PrincipalID(), sess.Credentials(), rmc.Ref.Serial
}

func TestResilienceRetryRecoversTransientValidateFault(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, _ := w.enter(t)

	w.bus.SetFault(failNTimes("login", 2))
	before := w.bus.Calls()
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatalf("transient fault not recovered by retry: %v", err)
	}
	if attempts := w.bus.Calls() - before; attempts != 3 {
		t.Errorf("transport attempts = %d, want 3 (2 failures + 1 success)", attempts)
	}
	if m := w.rc.Metrics(); m.Retries != 2 {
		t.Errorf("retries = %d, want 2", m.Retries)
	}
	if w.guard.Stats().DegradedHits != 0 {
		t.Error("degraded path used while the issuer was reachable")
	}
}

func TestResilienceBreakerOpensOnPersistentFailure(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, _ := w.enter(t)

	// Fresh (uncached) certificate + partitioned issuer: validation
	// fails, and after FailureThreshold transport failures the breaker
	// opens so later presentations fail fast without touching the wire.
	w.bus.SetFault(failAll("login"))
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); !errors.Is(err, ErrInvalidCredential) {
		t.Fatalf("partitioned validate err = %v", err)
	}
	if got := w.rc.BreakerState("login"); got != rpc.BreakerOpen {
		t.Fatalf("breaker = %v after 3 consecutive failures", got)
	}
	before := w.bus.Calls()
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err == nil {
		t.Fatal("open breaker validated a never-confirmed certificate")
	}
	if w.bus.Calls() != before {
		t.Error("open breaker still reached the transport")
	}

	// Partition heals; after the cooldown the half-open probe closes the
	// breaker and validation works again.
	w.bus.SetFault(nil)
	w.clk.Advance(testCooldown)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatalf("recovery after cooldown failed: %v", err)
	}
	if got := w.rc.BreakerState("login"); got != rpc.BreakerClosed {
		t.Errorf("breaker = %v after successful probe", got)
	}
}

func TestResilienceStaleGraceServesCachedCertDuringPartition(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, _ := w.enter(t)

	// Warm the cache while the issuer is reachable.
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatal(err)
	}
	// Partition the issuer and cross the revalidation deadline: the
	// re-confirmation fails with a transport error, so the previously
	// confirmed verdict is served degraded inside the grace window.
	w.bus.SetFault(failAll("login"))
	w.clk.Advance(testRevalidateAfter + time.Second)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatalf("degraded validation denied inside the grace window: %v", err)
	}
	if hits := w.guard.Stats().DegradedHits; hits != 1 {
		t.Errorf("DegradedHits = %d, want 1", hits)
	}
}

func TestResilienceStaleGraceExpiresIntoDenial(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, _ := w.enter(t)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatal(err)
	}
	w.bus.SetFault(failAll("login"))
	// Beyond RevalidateAfter + StaleGrace the degraded path must close.
	w.clk.Advance(testRevalidateAfter + testStaleGrace + time.Second)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); !errors.Is(err, ErrInvalidCredential) {
		t.Fatalf("validation past the stale-grace deadline: err = %v, want denial", err)
	}
	// The entry was dropped: subsequent presentations keep failing fast
	// (no degraded hits ever accrue past the window).
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err == nil {
		t.Fatal("second presentation past the deadline accepted")
	}
	if hits := w.guard.Stats().DegradedHits; hits != 0 {
		t.Errorf("DegradedHits = %d, want 0", hits)
	}
}

func TestResilienceHeartbeatTimeoutCollapsesDegradedCert(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, serial := w.enter(t)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatal(err)
	}
	if w.hb.WatchedCount() != 1 {
		t.Fatalf("WatchedCount = %d, want 1 (validated foreign cert liveness-watched)", w.hb.WatchedCount())
	}

	// Partition; within the heartbeat deadline, degraded validation
	// still answers.
	w.bus.SetFault(failAll("login"))
	w.clk.Advance(testRevalidateAfter + 30*time.Second) // 1m30s silent < 2m deadline
	if dead := w.hb.Sweep(); len(dead) != 0 {
		t.Fatalf("Sweep before deadline = %v", dead)
	}
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatalf("degraded validation before heartbeat deadline: %v", err)
	}

	// Past the heartbeat deadline the monitor publishes a synthetic
	// revocation, which clears the cached verdict — the stale-grace
	// window (which would still have minutes left) is cut short.
	w.clk.Advance(time.Minute) // 2m30s silent > 2m deadline
	dead := w.hb.Sweep()
	if len(dead) != 1 {
		t.Fatalf("Sweep past deadline = %v, want the watched cert", dead)
	}
	w.guardBr.Quiesce()
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); !errors.Is(err, ErrInvalidCredential) {
		t.Fatalf("validation after synthetic revocation: err = %v, want denial", err)
	}

	// Liveness recovering does not resurrect the entry by itself: the
	// issuer must be reachable again for a fresh confirmation.
	w.bus.SetFault(nil)
	w.clk.Advance(testCooldown)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatalf("revalidation after partition healed: %v", err)
	}
	if valid, _ := w.login.CRStatus(serial); !valid {
		t.Error("issuer-side CR unexpectedly revoked")
	}
}

func TestResilienceAuthoritativeRevocationBeatsGrace(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, serial := w.enter(t)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatal(err)
	}
	// The issuer revokes. The brokers are separate (no relay), so the
	// guard's cache does NOT see the event — only re-confirmation can
	// reveal the revocation.
	w.login.Deactivate(serial, "credential withdrawn")
	w.issuerBr.Quiesce()

	// Within the revalidation window the cached (now wrong) verdict is
	// still served — this is the documented staleness bound...
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); err != nil {
		t.Fatalf("within revalidation window: %v", err)
	}
	// ...but at the deadline the issuer answers "revoked", and that
	// authoritative verdict denies immediately even though the
	// stale-grace window would have minutes left.
	w.clk.Advance(testRevalidateAfter + time.Second)
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); !errors.Is(err, ErrInvalidCredential) {
		t.Fatalf("revoked cert served past revalidation deadline: %v", err)
	}
	if hits := w.guard.Stats().DegradedHits; hits != 0 {
		t.Errorf("DegradedHits = %d, want 0 (issuer was reachable)", hits)
	}
}

func TestResilienceNoGraceWithoutPriorConfirmation(t *testing.T) {
	w := newResilientWorld(t)
	principal, creds, _ := w.enter(t)
	// Never validated before the partition: nothing to degrade to.
	w.bus.SetFault(failAll("login"))
	if _, err := w.guard.Invoke(principal, "enter", nil, creds); !errors.Is(err, ErrInvalidCredential) {
		t.Fatalf("unconfirmed cert accepted during partition: %v", err)
	}
	if hits := w.guard.Stats().DegradedHits; hits != 0 {
		t.Errorf("DegradedHits = %d, want 0", hits)
	}
}
