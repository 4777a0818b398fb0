package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func withBatchWindow(d time.Duration) func(*Config) {
	return func(c *Config) { c.BatchWindow = d }
}

// slowValidateCaller delays single validate calls so concurrent
// validations pile up behind the gating flight; validate_batch departures
// pass through undelayed.
func (w *world) slowValidateCaller(delay time.Duration) callerFunc {
	return func(service, method string, body []byte) ([]byte, error) {
		if method == "validate_rmc" || method == "validate_appt" {
			time.Sleep(delay)
		}
		return w.bus.Call(service, method, body)
	}
}

// TestBatchCoalescesFanIn drives 8 concurrent uncached validations for
// the same issuer: the first two take the flight slots as single calls,
// the rest gather behind them and leave together as one validate_batch.
func TestBatchCoalescesFanIn(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`,
		withCaller(w.slowValidateCaller(250*time.Millisecond)),
		withBatchWindow(time.Second))

	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	creds := sess.Credentials()

	var wg sync.WaitGroup
	invoke := func() {
		defer wg.Done()
		if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
			t.Errorf("invoke: %v", err)
		}
	}
	wg.Add(1)
	go invoke() // gating single flight, held 250ms by the slow caller
	time.Sleep(50 * time.Millisecond)
	for g := 0; g < 7; g++ {
		wg.Add(1)
		go invoke() // pile up behind the gate
	}
	wg.Wait()

	st := guard.Stats()
	if st.BatchesSent != 1 {
		t.Errorf("BatchesSent = %d, want 1", st.BatchesSent)
	}
	if st.BatchedValidations != 6 {
		t.Errorf("BatchedValidations = %d, want 6 (8 minus the two flight-slot singles)", st.BatchedValidations)
	}
	if st.CallbackValidations != 8 {
		t.Errorf("CallbackValidations = %d, want 8", st.CallbackValidations)
	}
}

// TestBatchLoneCallDepartsImmediately: with no concurrent traffic a
// validation must leave as a single binary-coded call — no batch, no
// added window wait.
func TestBatchLoneCallDepartsImmediately(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")

	var mu sync.Mutex
	var methods []string
	var binaries []bool
	spy := callerFunc(func(service, method string, body []byte) ([]byte, error) {
		mu.Lock()
		methods = append(methods, method)
		binaries = append(binaries, len(body) > 0 && body[0] == tagValidateRMCReq)
		mu.Unlock()
		return w.bus.Call(service, method, body)
	})
	guard := w.service("guard", `auth enter <- login.user.`, withCaller(spy),
		withBatchWindow(time.Hour)) // a huge window must not delay a lone call

	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)

	start := time.Now()
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("lone call took %v; batching must not delay it", elapsed)
	}
	st := guard.Stats()
	if st.BatchesSent != 0 || st.BatchedValidations != 0 {
		t.Errorf("lone call was batched: %+v", st)
	}
	if st.CallbackValidations != 1 {
		t.Errorf("CallbackValidations = %d, want 1", st.CallbackValidations)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(methods) != 1 || methods[0] != "validate_rmc" {
		t.Fatalf("methods = %v, want [validate_rmc]", methods)
	}
	if !binaries[0] {
		t.Error("lone call did not use the binary wire body")
	}
}

// TestBatchPreservesVerdictClassification: inside one coalesced batch a
// revoked certificate is refused with the authoritative ErrInvalid-
// Credential while its valid companion is accepted.
func TestBatchPreservesVerdictClassification(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`,
		withCaller(w.slowValidateCaller(250*time.Millisecond)),
		withBatchWindow(time.Second))

	mint := func() *Session {
		sess := w.session()
		rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
		if err != nil {
			t.Fatal(err)
		}
		sess.AddRMC(rmc)
		return sess
	}
	gate1, gate2, good, bad := mint(), mint(), mint(), mint()
	login.Deactivate(bad.Credentials().RMCs[0].Ref.Serial, "account closed")
	w.broker.Quiesce()

	var wg sync.WaitGroup
	for _, gate := range []*Session{gate1, gate2} { // occupy both flight slots
		wg.Add(1)
		go func(gate *Session) {
			defer wg.Done()
			if _, err := guard.Invoke(gate.PrincipalID(), "enter", nil, gate.Credentials()); err != nil {
				t.Errorf("gate invoke: %v", err)
			}
		}(gate)
	}
	time.Sleep(50 * time.Millisecond)

	var goodErr, badErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, goodErr = guard.Invoke(good.PrincipalID(), "enter", nil, good.Credentials())
	}()
	go func() {
		defer wg.Done()
		_, badErr = guard.Invoke(bad.PrincipalID(), "enter", nil, bad.Credentials())
	}()
	wg.Wait()

	if goodErr != nil {
		t.Errorf("valid certificate refused: %v", goodErr)
	}
	if !errors.Is(badErr, ErrInvalidCredential) {
		t.Errorf("revoked certificate in batch: err = %v, want ErrInvalidCredential", badErr)
	}
	if st := guard.Stats(); st.BatchedValidations != 2 {
		t.Errorf("BatchedValidations = %d, want 2 (verdicts rode one batch)", st.BatchedValidations)
	}
}

// TestBatchDisabledByNegativeWindow: BatchWindow < 0 turns coalescing off
// entirely — fan-in traffic departs as concurrent singles.
func TestBatchDisabledByNegativeWindow(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`,
		withCaller(w.slowValidateCaller(30*time.Millisecond)),
		withBatchWindow(-1))

	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	creds := sess.Credentials()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	st := guard.Stats()
	if st.BatchesSent != 0 || st.BatchedValidations != 0 {
		t.Errorf("batching ran while disabled: %+v", st)
	}
	if st.CallbackValidations != 6 {
		t.Errorf("CallbackValidations = %d, want 6", st.CallbackValidations)
	}
}

// TestRegatherTimerSpinnerRace hammers the seam between the two flush
// paths — the per-arrival window timer (flushPending) and the hot-queue
// re-gather spinner (regatherFlush) — with a window small enough that
// both routinely try to claim the same herd. Whichever side wins
// takePending, every do() must receive exactly one verdict: a lost
// verdict parks its caller forever, and a double delivery plants a stale
// verdict in a pooled call that a later caller would receive as its own.
func TestRegatherTimerSpinnerRace(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}

	// Jitter the transport so flight returns interleave unpredictably
	// with timer firings and spinner polls.
	jitter := callerFunc(func(service, method string, body []byte) ([]byte, error) {
		time.Sleep(time.Duration(rand.Intn(150)) * time.Microsecond)
		return w.bus.Call(service, method, body)
	})
	b := newCallerBatcher(jitter, 100*time.Microsecond)

	const rounds, herd = 40, 12
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		errs := make([]error, herd)
		for i := 0; i < herd; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = b.do("login", rmcItem(rmc, sess.PrincipalID()))
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a verdict was lost — do() never returned", r)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d item %d: %v", r, i, err)
			}
		}
	}
	if b.batchesSent.Load() == 0 {
		t.Fatal("no batch ever departed; the race under test was not exercised")
	}

	// A double-delivered verdict survives in a pooled call's buffered
	// channel and surfaces as a stale answer to a later caller. Flip the
	// authoritative verdict: every subsequent validation must see the
	// revocation, never a leftover "valid".
	login.Deactivate(rmc.Ref.Serial, "logout")
	for i := 0; i < 2*herd; i++ {
		if err := b.do("login", rmcItem(rmc, sess.PrincipalID())); !errors.Is(err, ErrRevoked) {
			t.Fatalf("post-revocation verdict %d = %v, want ErrRevoked (stale pooled verdict?)", i, err)
		}
	}
}
