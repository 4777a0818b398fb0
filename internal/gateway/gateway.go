// Package gateway is the HTTP/JSON edge of the OASIS reproduction: a
// warden-style validation API (token-introspection shaped, after Ory
// Hydra's warden endpoints) that lets anything speaking HTTP — browsers,
// microservices, load balancers — use the paper's operations without
// the binary OW2 protocol. cmd/oasisgw serves it as a standalone edge
// tier; oasisd mounts the same handler in-process under -http-addr.
//
//	POST /validate   RMC / appointment introspection -> {"valid":bool}
//	POST /activate   role activation -> the issued RMC
//	POST /appoint    appointment issuance -> the issued certificate
//	POST /revoke     credential-record revocation by serial
//	GET  /healthz    liveness + per-backend circuit state
//	GET  /metrics    the obs registry, when one is configured
//
// Trust model: the gateway translates and admits, it does not
// authenticate. Certificates validate end-to-end (signatures are
// checked by the issuing service), so a forged /validate body gains
// nothing; but /activate, /appoint and /revoke reach the same trusted
// methods a Go peer could call, so the gateway belongs behind the same
// boundary as oasisd itself (see THREATMODEL.md).
//
// Edge concerns live here, not in the core: per-principal token-bucket
// rate limiting (429), an inflight admission cap (503) so overload
// sheds instead of queueing without bound, body-size limits, and
// per-endpoint latency/outcome metrics. Backend traffic rides the
// PR 5 hot path: concurrent /validate requests coalesce into
// validate_batch flights through core.RemoteValidator, over whatever
// pooled transport the caller was built on.
package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// DefaultMaxBodyBytes caps request bodies; every request here is a small
// JSON document (a certificate is ~300 bytes on the wire).
const DefaultMaxBodyBytes = 1 << 20

// BreakerReporter is the slice of rpc.ResilientCaller the health
// endpoint uses; any caller that tracks per-service circuit state fits.
type BreakerReporter interface {
	BreakerState(service string) rpc.BreakerState
}

// Config assembles a Gateway.
type Config struct {
	// Caller carries activate/appoint/revoke calls to the backends
	// (normally a ResilientCaller over a pooled TCP directory).
	Caller rpc.Caller
	// Validator coalesces /validate traffic into validate_batch
	// flights. Required; build it over the same transport as Caller.
	Validator *core.RemoteValidator
	// Cache, when set, serves /validate through an event-invalidated
	// EdgeCache wrapping Validator. The gateway only routes through it;
	// lifecycle (Attach on subscription, Detach on stream loss) belongs
	// to whoever owns the event feed (EdgeFeed in cmd/oasisgw, a direct
	// broker tap in oasisd's embedded mode). Detached, the cache
	// bypasses itself to the validator — PR 7 behavior.
	Cache *core.EdgeCache
	// Services names the backends this gateway fronts, for /healthz.
	Services []string
	// Breaker, when set, reports per-backend circuit state on /healthz.
	Breaker BreakerReporter

	// RatePerSec and Burst shape the per-principal token bucket
	// (requests/second sustained, bucket capacity). 0 disables rate
	// limiting.
	RatePerSec float64
	Burst      int
	// MaxInflight caps concurrently processed requests; excess is shed
	// with 503 before any backend work. 0 disables the cap.
	MaxInflight int
	// MaxBodyBytes caps request bodies (default DefaultMaxBodyBytes).
	MaxBodyBytes int64

	// Obs, when set, records per-endpoint latency histograms, outcome
	// counters and admission drops, and serves /metrics.
	Obs *obs.Registry
	// Now is the clock (tests); nil selects time.Now.
	Now func() time.Time
}

// Gateway translates HTTP edge traffic into the binary backend protocol.
type Gateway struct {
	caller    rpc.Caller
	validator *core.RemoteValidator
	cache     *core.EdgeCache
	services  []string
	breaker   BreakerReporter

	limiter  *limiter
	inflight chan struct{}
	maxBody  int64

	reg          *obs.Registry
	inflightG    *obs.Gauge
	dropOverload *obs.Counter
	dropRate     *obs.Counter
}

// New builds a Gateway from cfg. Caller and Validator are required.
func New(cfg Config) (*Gateway, error) {
	if cfg.Caller == nil {
		return nil, errors.New("gateway: Config.Caller is required")
	}
	if cfg.Validator == nil {
		return nil, errors.New("gateway: Config.Validator is required")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	g := &Gateway{
		caller:    cfg.Caller,
		validator: cfg.Validator,
		cache:     cfg.Cache,
		services:  append([]string(nil), cfg.Services...),
		breaker:   cfg.Breaker,
		limiter:   newLimiter(cfg.RatePerSec, cfg.Burst, now),
		maxBody:   cfg.MaxBodyBytes,
		reg:       cfg.Obs,
	}
	if g.maxBody <= 0 {
		g.maxBody = DefaultMaxBodyBytes
	}
	if cfg.MaxInflight > 0 {
		g.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	g.inflightG = cfg.Obs.Gauge("gw_inflight")
	g.dropOverload = cfg.Obs.Counter(`gw_admission_dropped_total{reason="overload"}`)
	g.dropRate = cfg.Obs.Counter(`gw_admission_dropped_total{reason="ratelimit"}`)
	if g.cache != nil && cfg.Obs != nil {
		for _, m := range []struct {
			name string
			load func(core.EdgeCacheStats) uint64
		}{
			{"gw_cache_hits_total", func(s core.EdgeCacheStats) uint64 { return s.Hits }},
			{"gw_cache_misses_total", func(s core.EdgeCacheStats) uint64 { return s.Misses }},
			{"gw_cache_bypassed_total", func(s core.EdgeCacheStats) uint64 { return s.Bypassed }},
			{"gw_cache_invalidations_total", func(s core.EdgeCacheStats) uint64 { return s.Invalidations }},
			{"gw_cache_flushes_total", func(s core.EdgeCacheStats) uint64 { return s.Flushes }},
			{"gw_cache_evictions_total", func(s core.EdgeCacheStats) uint64 { return s.Evictions }},
			{"gw_cache_entries", func(s core.EdgeCacheStats) uint64 { return uint64(s.Entries) }},
			{"gw_cache_live", func(s core.EdgeCacheStats) uint64 {
				if s.Live {
					return 1
				}
				return 0
			}},
		} {
			load := m.load
			cfg.Obs.Func(m.name, func() uint64 { return load(g.cache.Stats()) })
		}
	}
	return g, nil
}

// ValidateRequest asks for an authoritative verdict on exactly one
// certificate — an RMC with its presenting principal, or an appointment.
type ValidateRequest struct {
	Principal   string                       `json:"principal,omitempty"`
	RMC         *cert.RMC                    `json:"rmc,omitempty"`
	Appointment *cert.AppointmentCertificate `json:"appointment,omitempty"`
}

// ValidateResponse is the introspection verdict. Invalid certificates
// answer 200 with Valid=false — a refusal is a successful introspection,
// exactly as in OAuth token introspection.
type ValidateResponse struct {
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

// ActivateRequest wraps the core activation request with the target
// service (the role's issuer).
type ActivateRequest struct {
	Service string `json:"service"`
	core.RemoteActivateRequest
}

// AppointRequest wraps the core appointment request with the target
// service (the appointment's issuer).
type AppointRequest struct {
	Service string `json:"service"`
	core.RemoteAppointRequest
}

// RevokeRequest names a credential record at a service.
type RevokeRequest struct {
	Service string `json:"service"`
	Serial  uint64 `json:"serial"`
	Reason  string `json:"reason,omitempty"`
}

// errorResponse is the JSON error envelope for non-2xx answers.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler builds the gateway's HTTP mux.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/validate", g.endpoint("validate", g.handleValidate))
	mux.Handle("/activate", g.endpoint("activate", g.handleActivate))
	mux.Handle("/appoint", g.endpoint("appoint", g.handleAppoint))
	mux.Handle("/revoke", g.endpoint("revoke", g.handleRevoke))
	mux.HandleFunc("/healthz", g.handleHealthz)
	if g.reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := g.reg.WriteText(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "oasis edge gateway:\n  POST /validate\n  POST /activate\n  POST /appoint\n  POST /revoke\n  GET /healthz\n  GET /metrics\n")
	})
	return mux
}

// endpointFunc handles one request body and returns the HTTP status it
// wrote (for the outcome counters). The body is only borrowed: it goes
// back to a pool when the handler returns.
type endpointFunc func(w http.ResponseWriter, body []byte) int

// endpoint wraps a handler with the edge pipeline: method check,
// admission (inflight cap), one capped read of the body, latency
// histogram and outcome counters. Rate limiting happens inside the
// handlers, after the principal is parsed.
func (g *Gateway) endpoint(name string, h endpointFunc) http.Handler {
	hist := g.reg.Histogram(`gw_request_ns{endpoint="`+name+`"}`, nil)
	codes := make(map[int]*obs.Counter)
	for _, c := range []int{
		http.StatusOK, http.StatusBadRequest, http.StatusForbidden,
		http.StatusNotFound, http.StatusTooManyRequests,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout, http.StatusMethodNotAllowed,
	} {
		codes[c] = g.reg.Counter(fmt.Sprintf(`gw_requests_total{endpoint=%q,code="%d"}`, name, c))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := g.admit(w, r, func() int {
			buf, err := g.readBody(w, r)
			if err != nil {
				return badBody(w, err)
			}
			defer releaseBody(buf)
			return h(w, buf.Bytes())
		})
		hist.ObserveSince(start)
		if c, ok := codes[code]; ok {
			c.Inc()
		} else {
			g.reg.Counter(fmt.Sprintf(`gw_requests_total{endpoint=%q,code="%d"}`, name, code)).Inc()
		}
	})
}

// admit runs the request through method and overload admission.
func (g *Gateway) admit(w http.ResponseWriter, r *http.Request, run func() int) int {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
	}
	if g.inflight != nil {
		select {
		case g.inflight <- struct{}{}:
			g.inflightG.Add(1)
			defer func() { <-g.inflight; g.inflightG.Add(-1) }()
		default:
			// Shed, don't queue: under overload a bounded 503 rate keeps
			// the admitted requests' latency flat where queueing would
			// melt every caller's deadline (TestOverloadSheds503).
			g.dropOverload.Inc()
			w.Header().Set("Retry-After", "1")
			return writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "gateway overloaded"})
		}
	}
	return run()
}

// ratelimit enforces the per-principal bucket; it reports whether the
// request may proceed and writes the 429 if not. The Retry-After header
// is computed from the key's actual token deficit, not a fixed guess.
func (g *Gateway) ratelimit(w http.ResponseWriter, key string) (ok bool, code int) {
	admitted, retryAfter := g.limiter.allow(key)
	if admitted {
		return true, 0
	}
	g.dropRate.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	return false, writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "rate limit exceeded for " + key})
}

// maxPooledBody bounds the body buffers kept for reuse: a buffer one
// large request grew past it is dropped rather than pinned in the pool.
const maxPooledBody = 64 << 10

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads the whole request body, within the size cap, into a
// pooled buffer; releaseBody hands it back once nothing references it.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, g.maxBody)); err != nil {
		releaseBody(buf)
		return nil, err
	}
	return buf, nil
}

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// badBody answers a body that did not decode.
func badBody(w http.ResponseWriter, err error) int {
	return writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
}

// decodeValidateRequest decodes a /validate body into req exactly as
// json.Unmarshal would (see cert.JSONReader), in one pass and without
// reflection: this decode is the edge's per-verdict cost. Every string
// it stores is a copy, so body may be reused once it returns.
func decodeValidateRequest(body []byte, req *ValidateRequest) error {
	r := cert.NewJSONReader(body)
	if !r.Null() && r.Open('{') {
		for r.More('}') {
			switch key := r.Key(); {
			case cert.KeyIs(key, "principal"):
				r.Str(&req.Principal)
			case cert.KeyIs(key, "rmc"):
				if r.Null() {
					req.RMC = nil
					break
				}
				if req.RMC == nil {
					req.RMC = new(cert.RMC)
				}
				r.RMC(req.RMC)
			case cert.KeyIs(key, "appointment"):
				// Off the hot path, so encoding/json decodes it, into
				// the certificate an earlier repeat of the key left.
				appt := req.Appointment
				if raw := r.Raw(); raw != nil && json.Unmarshal(raw, &appt) != nil {
					r.Fail()
				}
				req.Appointment = appt
			default:
				r.Raw()
			}
		}
	}
	r.End()
	return r.Err()
}

func (g *Gateway) handleValidate(w http.ResponseWriter, body []byte) int {
	var req ValidateRequest
	if err := decodeValidateRequest(body, &req); err != nil {
		return badBody(w, err)
	}
	if (req.RMC == nil) == (req.Appointment == nil) {
		return writeJSON(w, http.StatusBadRequest, errorResponse{Error: "exactly one of rmc or appointment is required"})
	}
	key := req.Principal
	if key == "" && req.Appointment != nil {
		key = req.Appointment.Holder
	}
	if ok, code := g.ratelimit(w, key); !ok {
		return code
	}
	var err error
	switch {
	case g.cache != nil && req.RMC != nil:
		err = g.cache.ValidateRMC(*req.RMC, req.Principal)
	case g.cache != nil:
		err = g.cache.ValidateAppointment(*req.Appointment)
	case req.RMC != nil:
		err = g.validator.ValidateRMC(*req.RMC, req.Principal)
	default:
		err = g.validator.ValidateAppointment(*req.Appointment)
	}
	switch {
	case err == nil:
		return writeJSON(w, http.StatusOK, ValidateResponse{Valid: true})
	case errors.Is(err, core.ErrRevoked):
		return writeJSON(w, http.StatusOK, ValidateResponse{Valid: false, Reason: err.Error()})
	default:
		return g.upstreamError(w, err)
	}
}

func (g *Gateway) handleActivate(w http.ResponseWriter, body []byte) int {
	var req ActivateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return badBody(w, err)
	}
	if req.Service == "" || req.Principal == "" {
		return writeJSON(w, http.StatusBadRequest, errorResponse{Error: "service and principal are required"})
	}
	if ok, code := g.ratelimit(w, req.Principal); !ok {
		return code
	}
	return g.forward(w, req.Service, "activate", req.RemoteActivateRequest)
}

func (g *Gateway) handleAppoint(w http.ResponseWriter, body []byte) int {
	var req AppointRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return badBody(w, err)
	}
	if req.Service == "" || req.Principal == "" {
		return writeJSON(w, http.StatusBadRequest, errorResponse{Error: "service and principal are required"})
	}
	if ok, code := g.ratelimit(w, req.Principal); !ok {
		return code
	}
	return g.forward(w, req.Service, "appoint", req.RemoteAppointRequest)
}

func (g *Gateway) handleRevoke(w http.ResponseWriter, body []byte) int {
	var req RevokeRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return badBody(w, err)
	}
	if req.Service == "" {
		return writeJSON(w, http.StatusBadRequest, errorResponse{Error: "service is required"})
	}
	// Revocation has no principal; the bucket key is the target service,
	// which bounds revocation storms per backend.
	if ok, code := g.ratelimit(w, "svc:"+req.Service); !ok {
		return code
	}
	return g.forward(w, req.Service, "revoke", core.RemoteRevokeRequest{Serial: req.Serial, Reason: req.Reason})
}

// forward marshals a backend request, performs the call, and relays the
// backend's JSON response verbatim.
func (g *Gateway) forward(w http.ResponseWriter, service, method string, req any) int {
	body, err := json.Marshal(req)
	if err != nil {
		return writeJSON(w, http.StatusBadRequest, errorResponse{Error: "encode: " + err.Error()})
	}
	out, err := g.caller.Call(service, method, body)
	if err != nil {
		return g.upstreamError(w, err)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(out) //nolint:errcheck // client gone; nothing to do
	return http.StatusOK
}

// upstreamError maps a backend error onto an edge status: a RemoteError
// proves the backend ran and refused (403, or 400 for a body it could
// not decode), unknown services are 404, timeouts 504, and everything
// else that kept the call from completing is 502.
func (g *Gateway) upstreamError(w http.ResponseWriter, err error) int {
	var re *rpc.RemoteError
	switch {
	case errors.As(err, &re):
		code := http.StatusForbidden
		if strings.HasPrefix(re.Msg, "decode:") {
			code = http.StatusBadRequest
		}
		return writeJSON(w, code, errorResponse{Error: re.Error()})
	case errors.Is(err, rpc.ErrUnknownService):
		return writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	case errors.Is(err, rpc.ErrCallTimeout):
		return writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: err.Error()})
	default:
		return writeJSON(w, http.StatusBadGateway, errorResponse{Error: err.Error()})
	}
}

// healthzResponse reports liveness and per-backend circuit state.
type healthzResponse struct {
	Status   string            `json:"status"`
	Backends map[string]string `json:"backends,omitempty"`
}

// handleHealthz is exempt from admission: a load balancer must be able
// to probe an overloaded gateway and see it alive (shedding is not
// dead). A partial backend outage still answers 200 "ok" — the gateway
// can serve the surviving services, and pulling it from rotation would
// only shrink capacity further — but when EVERY backend breaker is open
// the gateway cannot do useful work at all, and it reports 503
// "degraded" so the balancer routes probes elsewhere.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := healthzResponse{Status: "ok"}
	code := http.StatusOK
	if len(g.services) > 0 {
		resp.Backends = make(map[string]string, len(g.services))
		allOpen := g.breaker != nil
		for _, svc := range g.services {
			state := "unknown"
			if g.breaker != nil {
				bs := g.breaker.BreakerState(svc)
				state = bs.String()
				if bs != rpc.BreakerOpen {
					allOpen = false
				}
			}
			resp.Backends[svc] = state
		}
		if allOpen {
			resp.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
	}
	writeJSON(w, code, resp)
}

// writeJSON writes v with the given status and returns the status.
func writeJSON(w http.ResponseWriter, code int, v any) int {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
	return code
}
