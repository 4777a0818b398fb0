package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sign"
)

func TestCallbackValidationPerUse(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `guard.inside <- login.user.
auth enter <- login.user.`)
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)

	before := w.bus.Calls()
	for i := 0; i < 5; i++ {
		if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
			t.Fatal(err)
		}
	}
	callbacks := w.bus.Calls() - before
	if callbacks != 5 {
		t.Errorf("expected one callback per use without caching, got %d", callbacks)
	}
	if guard.Stats().CallbackValidations != 5 {
		t.Errorf("stats = %+v", guard.Stats())
	}
}

func TestCachedValidationAmortisesCallback(t *testing.T) {
	// Sect. 4: "The service may cache the certificate and the result of
	// validation in order to reduce the communication overhead of
	// repeated callback."
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`, withCache())
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)

	before := w.bus.Calls()
	for i := 0; i < 10; i++ {
		if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
			t.Fatal(err)
		}
	}
	callbacks := w.bus.Calls() - before
	if callbacks != 1 {
		t.Errorf("expected exactly one callback with caching, got %d", callbacks)
	}
	if hits := guard.Stats().CacheHits; hits != 9 {
		t.Errorf("CacheHits = %d, want 9", hits)
	}
}

func TestCacheInvalidatedByRevocationEvent(t *testing.T) {
	// The ECR proxy must drop its cached result the instant the issuer
	// revokes (Fig. 5), not at the next callback.
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`, withCache())
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
		t.Fatal(err)
	}
	login.Deactivate(rmc.Ref.Serial, "logout")
	w.broker.Quiesce()
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); !errors.Is(err, ErrInvalidCredential) {
		t.Errorf("cached validation outlived revocation: %v", err)
	}
}

func TestValidationNoTransport(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	isolated, err := NewService(Config{
		Name:   "isolated",
		Policy: mustPolicy(`auth m <- login.user.`),
		Broker: w.broker,
		Clock:  w.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(isolated.Close)
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	if _, err := isolated.Invoke(sess.PrincipalID(), "m", nil, sess.Credentials()); !errors.Is(err, ErrInvalidCredential) {
		t.Errorf("validation without transport: %v", err)
	}
}

func TestValidationTransportFault(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`)
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	w.bus.SetFault(failNTimes("login", 1))
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); !errors.Is(err, ErrInvalidCredential) {
		t.Errorf("faulted callback treated as valid: %v", err)
	}
	// Transport recovers; the next call succeeds.
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
		t.Errorf("post-fault invoke failed: %v", err)
	}
}

func TestForgedRMCRejectedByIssuerCallback(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`)
	sess := w.session()
	// Forge: an RMC that claims to be from login but was never issued.
	forged := cert.RMC{
		Role: role("login", "user"),
		Ref:  cert.CRR{Issuer: "login", Serial: 424242},
	}
	sess.AddRMC(forged)
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); !errors.Is(err, ErrInvalidCredential) {
		t.Errorf("forged RMC accepted: %v", err)
	}
}

func TestInvokeUnknownMethod(t *testing.T) {
	w := newWorld(t)
	svc := w.service("s", `auth known <- env ok.`)
	alwaysTrue(svc, "ok")
	if _, err := svc.Invoke("p", "unknown", nil, Presented{}); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("err = %v", err)
	}
}

func TestInvokeDeniedAndBoundImpl(t *testing.T) {
	w := newWorld(t)
	svc := w.service("files", `files.owner(F) <- env owns(F).
auth read(F) <- files.owner(F).`)
	db := newOwnsDB(t, svc)
	_ = db
	sess := w.session()
	rmc, err := svc.Activate(sess.PrincipalID(), role("files", "owner", names.Atom("f1")), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	svc.Bind("read", func(args []names.Term) ([]byte, error) {
		return []byte("contents of " + args[0].String()), nil
	})
	out, err := svc.Invoke(sess.PrincipalID(), "read", []names.Term{names.Atom("f1")}, sess.Credentials())
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "contents of f1" {
		t.Errorf("out = %q", out)
	}
	// A file the principal does not own is denied.
	if _, err := svc.Invoke(sess.PrincipalID(), "read", []names.Term{names.Atom("f2")}, sess.Credentials()); !errors.Is(err, ErrInvocationDenied) {
		t.Errorf("err = %v", err)
	}
	stats := svc.Stats()
	if stats.Invocations != 1 || stats.InvocationsDenied != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestInvokeObserverReceivesCredentialKeys(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	guard := w.service("guard", `auth enter <- login.user.`)
	var recs []InvokeRecord
	guard.Observe(func(r InvokeRecord) { recs = append(recs, r) })
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Service != "guard" || recs[0].Method != "enter" {
		t.Errorf("record = %+v", recs[0])
	}
	if len(recs[0].Credentials) != 1 || recs[0].Credentials[0] != rmc.Ref.String() {
		t.Errorf("credentials = %v, want [%s]", recs[0].Credentials, rmc.Ref)
	}
}

func TestRemoteClientActivateInvoke(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	svc := w.service("svc", `auth hello <- login.user.`)
	svc.Bind("hello", func(args []names.Term) ([]byte, error) {
		return []byte("hi"), nil
	})
	cli := NewClient(w.bus)
	sess := w.session()
	rmc, err := cli.Activate("login", sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	out, err := cli.Invoke("svc", sess.PrincipalID(), "hello", nil, sess.Credentials())
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hi" {
		t.Errorf("out = %q", out)
	}
	// A remote activation that fails surfaces as a RemoteError.
	_, err = cli.Activate("login", sess.PrincipalID(), role("login", "admin"), Presented{})
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		t.Errorf("err = %v", err)
	}
}

func TestHandlerRejectsGarbage(t *testing.T) {
	w := newWorld(t)
	svc := w.service("s", `auth m <- env ok.`)
	h := svc.Handler()
	for _, method := range []string{"validate_rmc", "validate_appt", "activate", "invoke"} {
		if _, err := h(method, []byte("{broken")); err == nil {
			t.Errorf("%s accepted garbage", method)
		}
	}
	if _, err := h("no_such_method", nil); err == nil {
		t.Error("unknown method accepted")
	}
}

// newOwnsDB registers an `owns` predicate that holds for file f1 only.
func newOwnsDB(t *testing.T, svc *Service) struct{} {
	t.Helper()
	svc.Env().Register("owns", func(args []names.Term, s names.Substitution) []names.Substitution {
		if len(args) != 1 {
			return nil
		}
		if ext, ok := names.UnifyTuples(args, []names.Term{names.Atom("f1")}, s); ok {
			return []names.Substitution{ext}
		}
		return nil
	})
	return struct{}{}
}

func mustPolicy(src string) policy.Policy {
	return policy.MustParse(src)
}

// callerFunc adapts a function to the rpc.Caller interface for tests that
// intercept callback validations.
type callerFunc func(service, method string, body []byte) ([]byte, error)

func (f callerFunc) Call(service, method string, body []byte) ([]byte, error) {
	return f(service, method, body)
}

func withCaller(c rpc.Caller) func(*Config) {
	return func(cfg *Config) { cfg.Caller = c }
}

// TestRevocationDuringCacheFillNotCachedStale is the regression test for
// the cache-fill race: a revocation delivered between the issuer answering
// "valid" and the cache entry landing must not leave a stale positive
// entry. The interceptor revokes the certificate (and waits for the event
// fan-out to settle) after the issuer has answered but before the answer
// reaches the caching service.
func TestRevocationDuringCacheFillNotCachedStale(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")

	var serial atomic.Uint64
	interceptor := callerFunc(func(service, method string, body []byte) ([]byte, error) {
		out, err := w.bus.Call(service, method, body)
		if method == "validate_rmc" {
			login.Deactivate(serial.Load(), "revoked mid-validation")
			w.broker.Quiesce()
		}
		return out, err
	})
	guard := w.service("guard", `auth enter <- login.user.`, withCache(), withCaller(interceptor))

	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	serial.Store(rmc.Ref.Serial)
	sess.AddRMC(rmc)
	creds := sess.Credentials()

	// The first invocation may succeed (the issuer answered "valid"
	// before the revocation), but it must not cache that answer.
	guard.Invoke(sess.PrincipalID(), "enter", nil, creds) //nolint:errcheck

	if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err == nil {
		t.Fatal("revoked certificate accepted from a stale cache entry")
	}
	if hits := guard.Stats().CacheHits; hits != 0 {
		t.Errorf("CacheHits = %d, want 0 (no positive entry may survive the fill race)", hits)
	}
}

// TestSingleflightCoalescesConcurrentFills checks that N concurrent
// presentations of the same uncached certificate trigger one issuer
// callback, not N.
func TestSingleflightCoalescesConcurrentFills(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")

	var callbacks atomic.Uint64
	slowCaller := callerFunc(func(service, method string, body []byte) ([]byte, error) {
		if method == "validate_rmc" {
			callbacks.Add(1)
			time.Sleep(20 * time.Millisecond) // hold the flight open so presenters pile up
		}
		return w.bus.Call(service, method, body)
	})
	guard := w.service("guard", `auth enter <- login.user.`, withCache(), withCaller(slowCaller))

	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	creds := sess.Credentials()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
				t.Errorf("invoke: %v", err)
			}
		}()
	}
	wg.Wait()

	if got := callbacks.Load(); got != 1 {
		t.Errorf("callback validations = %d, want 1 (singleflight)", got)
	}
	if got := guard.Stats().CallbackValidations; got != 1 {
		t.Errorf("stats.CallbackValidations = %d, want 1", got)
	}
}

// A key ring restored without its records re-issues serials. An RMC
// revoked before the restart carries the same serial as a record issued
// after it, to the same principal, for another role; the record's
// subject, not only its serial and holder, must decide the verdict.
func TestReissuedSerialDoesNotResurrectRevokedRMC(t *testing.T) {
	const pol = `login.user <- env ok.
login.admin <- env ok.`
	w := newWorld(t)
	before := w.service("login", pol)
	alwaysTrue(before, "ok")
	pid := w.session().PrincipalID()
	old, err := before.Activate(pid, role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	if !before.Revoke(old.Ref.Serial, "logout") {
		t.Fatal("revoke reported no live record")
	}
	if err := before.validateRMC(pid, old); err == nil {
		t.Fatal("revoked RMC validates before the restart")
	}

	secrets, retain := before.ExportKeys()
	ring, err := sign.NewKeyRingFromSecrets(secrets, retain, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := newWorld(t).service("login", pol, func(c *Config) { c.KeyRing = ring })
	alwaysTrue(after, "ok")
	admin, err := after.Activate(pid, role("login", "admin"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	if admin.Ref != old.Ref {
		t.Fatalf("fresh store issued %v, want the revoked serial %v again", admin.Ref, old.Ref)
	}
	if err := after.validateRMC(pid, admin); err != nil {
		t.Fatalf("newly issued RMC: %v", err)
	}
	if err := after.validateRMC(pid, old); !errors.Is(err, ErrInvalidCredential) {
		t.Fatalf("revoked RMC on a re-issued serial: err = %v, want ErrInvalidCredential", err)
	}
	if v := after.validateItemVerdict(rmcItem(old, pid)); v.Valid {
		t.Fatal("validate_rmc answers valid for the revoked RMC")
	}
}
