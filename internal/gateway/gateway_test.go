package gateway

// End-to-end tests of the HTTP edge: every request travels
// HTTP -> gateway -> pooled TCP -> core service handler, the cmd/oasisgw
// deployment topology, so the tests cover the full translation including
// coalescing into validate_batch flights and the 429/503 admission paths.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// hookHandler wraps a backend handler with a swappable pre-call hook, so
// tests can block the backend mid-flight.
type hookHandler struct {
	inner rpc.Handler
	mu    sync.Mutex
	hook  func(method string)
}

func (h *hookHandler) set(hook func(method string)) {
	h.mu.Lock()
	h.hook = hook
	h.mu.Unlock()
}

func (h *hookHandler) call(method string, body []byte) ([]byte, error) {
	h.mu.Lock()
	hook := h.hook
	h.mu.Unlock()
	if hook != nil {
		hook(method)
	}
	return h.inner(method, body)
}

// backend is one issuing service behind a real TCP listener.
type backend struct {
	svc  *core.Service
	hook *hookHandler
	addr string
}

func startBackend(t *testing.T, policyText string) *backend {
	t.Helper()
	broker := event.NewBroker()
	t.Cleanup(broker.Close)
	svc, err := core.NewService(core.Config{
		Name:   "login",
		Policy: policy.MustParse(policyText),
		Broker: broker,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})

	hook := &hookHandler{inner: svc.Handler()}
	srv := rpc.NewTCPServer()
	srv.Register("login", hook.call)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // dies with the test server
	t.Cleanup(srv.Close)
	return &backend{svc: svc, hook: hook, addr: ln.Addr().String()}
}

// edge assembles a gateway over the backend and serves it via httptest.
type edge struct {
	gw        *Gateway
	validator *core.RemoteValidator
	reg       *obs.Registry
	url       string
	client    *http.Client
}

func startEdge(t *testing.T, b *backend, mutate func(*Config)) *edge {
	t.Helper()
	dir := rpc.NewDirectoryPool(5*time.Second, 2)
	t.Cleanup(dir.Close)
	dir.Add("login", b.addr)
	reg := obs.NewRegistry()
	validator := core.NewRemoteValidator("edge", dir, 0, reg)
	cfg := Config{
		Caller:    dir,
		Validator: validator,
		Services:  []string{"login"},
		Obs:       reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return &edge{gw: gw, validator: validator, reg: reg, url: ts.URL, client: ts.Client()}
}

// post sends one JSON request and decodes the JSON response into out
// (skipped when out is nil), returning the status code.
func (e *edge) post(t *testing.T, path string, req, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response (status %d): %v", path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func activateAt(t *testing.T, b *backend, principal string) cert.RMC {
	t.Helper()
	rmc, err := b.svc.Activate(principal,
		names.MustRole(names.MustRoleName("login", "user", 0)), core.Presented{})
	if err != nil {
		t.Fatal(err)
	}
	return rmc
}

func TestValidateEndToEnd(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	e := startEdge(t, b, nil)

	rmc := activateAt(t, b, "alice-key")
	var verdict ValidateResponse
	if code := e.post(t, "/validate", ValidateRequest{Principal: "alice-key", RMC: &rmc}, &verdict); code != http.StatusOK {
		t.Fatalf("validate status = %d", code)
	}
	if !verdict.Valid {
		t.Fatalf("fresh RMC judged invalid: %+v", verdict)
	}

	// Revocation flips the verdict to an authoritative 200/invalid, not
	// an error: a refusal is a successful introspection.
	b.svc.Deactivate(rmc.Ref.Serial, "logout")
	if code := e.post(t, "/validate", ValidateRequest{Principal: "alice-key", RMC: &rmc}, &verdict); code != http.StatusOK {
		t.Fatalf("validate status after revocation = %d", code)
	}
	if verdict.Valid || verdict.Reason == "" {
		t.Fatalf("revoked RMC verdict = %+v, want invalid with a reason", verdict)
	}

	st := e.validator.Stats()
	if st.Valid != 1 || st.Invalid != 1 {
		t.Errorf("validator stats = %+v, want 1 valid / 1 invalid", st)
	}
}

func TestValidateBadRequests(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	e := startEdge(t, b, nil)
	rmc := activateAt(t, b, "alice-key")

	if code := e.post(t, "/validate", ValidateRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty validate request: status = %d, want 400", code)
	}
	appt := cert.AppointmentCertificate{Issuer: "login", Holder: "h"}
	if code := e.post(t, "/validate", ValidateRequest{RMC: &rmc, Appointment: &appt}, nil); code != http.StatusBadRequest {
		t.Errorf("both certificates: status = %d, want 400", code)
	}
	resp, err := e.client.Post(e.url+"/validate", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status = %d, want 400", resp.StatusCode)
	}
	if code := e.post(t, "/validate", "null", nil); code != http.StatusBadRequest {
		t.Errorf("null request: status = %d, want 400", code)
	}

	// GET on a POST endpoint.
	getResp, err := e.client.Get(e.url + "/validate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /validate: status = %d, want 405", getResp.StatusCode)
	}

	// An issuer the directory has never heard of is the edge's 404.
	stray := rmc
	stray.Ref.Issuer = "nowhere"
	if code := e.post(t, "/validate", ValidateRequest{Principal: "alice-key", RMC: &stray}, nil); code != http.StatusNotFound {
		t.Errorf("unknown issuer: status = %d, want 404", code)
	}
}

// postRaw sends body as is and returns the status code.
func (e *edge) postRaw(t *testing.T, path string, body []byte) int {
	t.Helper()
	resp, err := e.client.Post(e.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBodyIsOneJSONValue: every POST endpoint reads its body once,
// within the size cap, and refuses anything but whitespace after the
// JSON value.
func TestBodyIsOneJSONValue(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	e := startEdge(t, b, func(c *Config) { c.MaxBodyBytes = 4096 })
	rmc := activateAt(t, b, "alice-key")
	areq := ActivateRequest{Service: "login"}
	areq.Principal = "bob-key"
	areq.Role = names.MustRole(names.MustRoleName("login", "user", 0))
	preq := AppointRequest{Service: "login"}
	preq.Principal, preq.Kind, preq.Holder = "alice-key", "badge", "carol-key"
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/validate", ValidateRequest{Principal: "alice-key", RMC: &rmc}},
		{"/activate", areq},
		{"/appoint", preq},
		{"/revoke", RevokeRequest{Service: "login", Serial: 999}},
	} {
		body, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		if code := e.postRaw(t, c.path, append(body, " \r\n\t"...)); code == http.StatusBadRequest {
			t.Errorf("%s with trailing whitespace: status 400", c.path)
		}
		if code := e.postRaw(t, c.path, append(body, ` {}`...)); code != http.StatusBadRequest {
			t.Errorf("%s with a second value after the body: status %d, want 400", c.path, code)
		}
		if code := e.postRaw(t, c.path, append(body, bytes.Repeat([]byte(" "), 4096)...)); code != http.StatusBadRequest {
			t.Errorf("%s over the body cap: status %d, want 400", c.path, code)
		}
	}
}

// TestValidateCoalescesIntoBatches holds the backend's two allowed
// in-flight wire calls open while more HTTP validations arrive; when
// released, the parked herd must depart as validate_batch flights, not
// one wire call each — the reason the gateway exists.
func TestValidateCoalescesIntoBatches(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	e := startEdge(t, b, nil)

	const herd = 18
	principals := make([]string, herd)
	rmcs := make([]cert.RMC, herd)
	for i := range principals {
		principals[i] = fmt.Sprintf("p%02d-key", i)
		rmcs[i] = activateAt(t, b, principals[i])
	}
	// Prewarm the connection (and the binary-protocol handshake).
	var warm ValidateResponse
	if code := e.post(t, "/validate", ValidateRequest{Principal: principals[0], RMC: &rmcs[0]}, &warm); code != http.StatusOK || !warm.Valid {
		t.Fatalf("prewarm: status %d, verdict %+v", code, warm)
	}

	release := make(chan struct{})
	var held atomic.Int32
	b.hook.set(func(method string) {
		held.Add(1)
		<-release
	})

	var wg sync.WaitGroup
	codes := make([]int, herd)
	verdicts := make([]ValidateResponse, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = e.post(t, "/validate", ValidateRequest{Principal: principals[i], RMC: &rmcs[i]}, &verdicts[i])
		}(i)
	}

	// Wait for the coalescer's two in-flight slots to block at the
	// backend, then give the rest of the herd time to park in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for held.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if held.Load() < 2 {
		t.Fatalf("only %d wire calls in flight, want the 2-slot gate filled", held.Load())
	}
	time.Sleep(100 * time.Millisecond)
	b.hook.set(nil)
	close(release)
	wg.Wait()

	for i := range codes {
		if codes[i] != http.StatusOK || !verdicts[i].Valid {
			t.Fatalf("request %d: status %d, verdict %+v", i, codes[i], verdicts[i])
		}
	}
	st := e.validator.Stats()
	if st.BatchesSent == 0 || st.BatchedValidations < 2 {
		t.Errorf("no coalescing observed: %+v", st)
	}
	wireCalls := st.CallbackValidations - st.BatchedValidations + st.BatchesSent
	if wireCalls >= st.Validations {
		t.Errorf("~%d wire calls for %d validations: the herd did not batch (%+v)", wireCalls, st.Validations, st)
	}
}

func TestRateLimitAnswers429(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	e := startEdge(t, b, func(cfg *Config) {
		cfg.RatePerSec = 0.01 // effectively no refill within the test
		cfg.Burst = 2
	})
	rmc := activateAt(t, b, "alice-key")
	bobRMC := activateAt(t, b, "bob-key")

	req := ValidateRequest{Principal: "alice-key", RMC: &rmc}
	for i := 0; i < 2; i++ {
		if code := e.post(t, "/validate", req, nil); code != http.StatusOK {
			t.Fatalf("request %d inside burst: status = %d", i, code)
		}
	}
	body, _ := json.Marshal(req)
	resp, err := e.client.Post(e.url+"/validate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past burst: status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The bucket is per principal: bob is unaffected by alice's storm.
	if code := e.post(t, "/validate", ValidateRequest{Principal: "bob-key", RMC: &bobRMC}, nil); code != http.StatusOK {
		t.Errorf("other principal rate-limited too: status = %d", code)
	}
	if got := e.reg.Value(`gw_admission_dropped_total{reason="ratelimit"}`); got != 1 {
		t.Errorf("ratelimit drop counter = %d, want 1", got)
	}
}

// TestOverloadSheds503 wedges the single inflight slot in the backend and
// checks the next request is shed at admission — and that /healthz still
// answers, because a shedding gateway is alive, not dead.
func TestOverloadSheds503(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	e := startEdge(t, b, func(cfg *Config) { cfg.MaxInflight = 1 })
	rmc := activateAt(t, b, "alice-key")

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	b.hook.set(func(string) {
		entered <- struct{}{}
		<-release
	})
	defer close(release)

	// The wedged request's own outcome is not asserted (it unblocks when
	// release closes at test end), so errors are ignored here — and
	// t.Fatal must not be called off the test goroutine anyway.
	go func() {
		wedged, _ := json.Marshal(ValidateRequest{Principal: "alice-key", RMC: &rmc})
		resp, err := e.client.Post(e.url+"/validate", "application/json", bytes.NewReader(wedged))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered // the slot is taken and wedged at the backend

	body, _ := json.Marshal(ValidateRequest{Principal: "bob-key", RMC: &rmc})
	resp, err := e.client.Post(e.url+"/validate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request with the slot wedged: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := e.reg.Value(`gw_admission_dropped_total{reason="overload"}`); got != 1 {
		t.Errorf("overload drop counter = %d, want 1", got)
	}

	hresp, err := e.client.Get(e.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz during overload: status = %d, want 200", hresp.StatusCode)
	}
	b.hook.set(nil)
}

// TestActivateRevokeOverHTTP drives the full certificate lifecycle from
// the HTTP side: activate a role, introspect it, revoke it by serial,
// introspect again.
func TestActivateRevokeOverHTTP(t *testing.T) {
	b := startBackend(t, `
login.user <- env ok.
auth appoint_badge(K) <- login.user.
`)
	e := startEdge(t, b, nil)

	// Activate over HTTP; the response body is the issued RMC.
	areq := ActivateRequest{Service: "login"}
	areq.Principal = "alice-key"
	areq.Role = names.MustRole(names.MustRoleName("login", "user", 0))
	body, err := json.Marshal(areq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.client.Post(e.url+"/activate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("activate: status = %d, body %s", resp.StatusCode, raw.Bytes())
	}
	rmc, err := cert.UnmarshalRMC(raw.Bytes())
	if err != nil {
		t.Fatalf("activate response is not an RMC: %v", err)
	}

	var verdict ValidateResponse
	if code := e.post(t, "/validate", ValidateRequest{Principal: "alice-key", RMC: &rmc}, &verdict); code != http.StatusOK || !verdict.Valid {
		t.Fatalf("introspecting the issued RMC: status %d, verdict %+v", code, verdict)
	}

	// Appoint over HTTP, presenting the RMC just issued.
	preq := AppointRequest{Service: "login"}
	preq.Principal = "alice-key"
	preq.Kind = "badge"
	preq.Holder = "contractor-key"
	preq.Params = []names.Term{names.Atom("gate3")}
	preq.RMCs = []cert.RMC{rmc}
	body, err = json.Marshal(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp, err := e.client.Post(e.url+"/appoint", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	praw := new(bytes.Buffer)
	if _, err := praw.ReadFrom(presp.Body); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("appoint: status = %d, body %s", presp.StatusCode, praw.Bytes())
	}
	badge, err := cert.UnmarshalAppointment(praw.Bytes())
	if err != nil {
		t.Fatalf("appoint response is not an appointment: %v", err)
	}
	if code := e.post(t, "/validate", ValidateRequest{Appointment: &badge}, &verdict); code != http.StatusOK || !verdict.Valid {
		t.Fatalf("introspecting the appointment: status %d, verdict %+v", code, verdict)
	}

	// Revoke the RMC by serial; the verdict must flip.
	var rev core.RemoteRevokeResponse
	if code := e.post(t, "/revoke", RevokeRequest{Service: "login", Serial: rmc.Ref.Serial, Reason: "offboarded"}, &rev); code != http.StatusOK {
		t.Fatalf("revoke: status = %d", code)
	}
	if !rev.Revoked {
		t.Fatal("revoke acknowledged nothing")
	}
	if code := e.post(t, "/validate", ValidateRequest{Principal: "alice-key", RMC: &rmc}, &verdict); code != http.StatusOK {
		t.Fatalf("validate after revoke: status = %d", code)
	}
	if verdict.Valid {
		t.Error("RMC still valid after HTTP revocation")
	}
	// Revoking again is idempotent and acknowledged false.
	if code := e.post(t, "/revoke", RevokeRequest{Service: "login", Serial: rmc.Ref.Serial}, &rev); code != http.StatusOK || rev.Revoked {
		t.Errorf("second revoke: status %d, revoked %v, want 200/false", code, rev.Revoked)
	}

	// A denied activation is the backend's refusal: 403, not a gateway
	// failure.
	dreq := ActivateRequest{Service: "login"}
	dreq.Principal = "mallory-key"
	dreq.Role = names.MustRole(names.MustRoleName("login", "admin", 0))
	if code := e.post(t, "/activate", dreq, nil); code != http.StatusForbidden {
		t.Errorf("undefined role activation: status = %d, want 403", code)
	}
}

func TestHealthzReportsBreakers(t *testing.T) {
	b := startBackend(t, `login.user <- env ok.`)
	dir := rpc.NewDirectoryPool(5*time.Second, 2)
	t.Cleanup(dir.Close)
	dir.Add("login", b.addr)
	caller := rpc.NewResilientCaller(dir, rpc.ResilientConfig{})
	validator := core.NewRemoteValidator("edge", caller, 0, nil)
	gw, err := New(Config{
		Caller:    caller,
		Validator: validator,
		Services:  []string{"login"},
		Breaker:   caller,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Status   string            `json:"status"`
		Backends map[string]string `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Backends["login"] != "closed" {
		t.Errorf("healthz = %+v, want ok with login breaker closed", health)
	}
}

// stubBreaker reports a fixed per-service circuit state.
type stubBreaker map[string]rpc.BreakerState

func (b stubBreaker) BreakerState(service string) rpc.BreakerState { return b[service] }

// TestHealthzDegradedWhenAllBackendsDown pins the load-balancer contract:
// every backend breaker open means the gateway can do no useful work and
// must answer 503 "degraded"; a partial outage keeps answering 200 "ok"
// (pulling a still-useful gateway from rotation only shrinks capacity).
func TestHealthzDegradedWhenAllBackendsDown(t *testing.T) {
	probe := func(t *testing.T, breaker stubBreaker) (int, string) {
		t.Helper()
		dir := rpc.NewDirectoryPool(time.Second, 1)
		t.Cleanup(dir.Close)
		caller := rpc.NewResilientCaller(dir, rpc.ResilientConfig{})
		gw, err := New(Config{
			Caller:    caller,
			Validator: core.NewRemoteValidator("edge", caller, 0, nil),
			Services:  []string{"login", "files"},
			Breaker:   breaker,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(gw.Handler())
		t.Cleanup(ts.Close)
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var health struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, health.Status
	}

	if code, status := probe(t, stubBreaker{
		"login": rpc.BreakerOpen, "files": rpc.BreakerOpen,
	}); code != http.StatusServiceUnavailable || status != "degraded" {
		t.Errorf("all breakers open: %d %q, want 503 degraded", code, status)
	}
	if code, status := probe(t, stubBreaker{
		"login": rpc.BreakerOpen, "files": rpc.BreakerClosed,
	}); code != http.StatusOK || status != "ok" {
		t.Errorf("partial outage: %d %q, want 200 ok", code, status)
	}
	if code, status := probe(t, stubBreaker{
		"login": rpc.BreakerOpen, "files": rpc.BreakerHalfOpen,
	}); code != http.StatusOK || status != "ok" {
		t.Errorf("half-open probe window: %d %q, want 200 ok", code, status)
	}
}
