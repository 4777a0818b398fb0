package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/names"
	"repro/internal/rpc"
)

// gatewayClient is one worker's HTTP client: a private transport holding
// exactly one keep-alive connection, so a worker never has more than one
// request in flight and never borrows another worker's connection. Not
// safe for concurrent use.
type gatewayClient struct {
	base string
	tr   *http.Transport
	c    *http.Client
	buf  bytes.Buffer
	// reqID, when non-zero, is sent as X-Bench-Req so the traced run can
	// tie the gateway's span to the generator's.
	reqID uint64
}

const reqHeader = "X-Bench-Req"

func newGatewayClient(base string) *gatewayClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &gatewayClient{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: callTimeout}}
}

func (g *gatewayClient) close() { g.tr.CloseIdleConnections() }

// post sends one JSON request and returns the status and body. The body
// is valid until the next call.
func (g *gatewayClient) post(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if g.reqID != 0 {
		req.Header.Set(reqHeader, fmt.Sprint(g.reqID))
	}
	resp, err := g.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	g.buf.Reset()
	_, err = io.Copy(&g.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, g.buf.Bytes(), nil
}

// validate posts a pre-marshalled /validate body and returns the verdict.
// Anything but 200 — shed, rate-limited, upstream failure — is an error:
// the benchmark's workloads are chosen so that no operation fails.
func (g *gatewayClient) validate(body []byte) (bool, error) {
	code, out, err := g.post("/validate", body)
	if err != nil {
		return false, err
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("/validate: HTTP %d: %s", code, bytes.TrimSpace(out))
	}
	var v gateway.ValidateResponse
	if err := json.Unmarshal(out, &v); err != nil {
		return false, fmt.Errorf("/validate: bad response %q: %w", out, err)
	}
	return v.Valid, nil
}

// activate posts /activate and returns the issued RMC.
func (g *gatewayClient) activate(service, principal string, role names.Role, presented []cert.RMC) (cert.RMC, error) {
	body, err := json.Marshal(gateway.ActivateRequest{
		Service:               service,
		RemoteActivateRequest: core.RemoteActivateRequest{Principal: principal, Role: role, RMCs: presented},
	})
	if err != nil {
		return cert.RMC{}, err
	}
	code, out, err := g.post("/activate", body)
	if err != nil {
		return cert.RMC{}, err
	}
	if code != http.StatusOK {
		return cert.RMC{}, fmt.Errorf("/activate %s: HTTP %d: %s", role, code, bytes.TrimSpace(out))
	}
	return cert.UnmarshalRMC(out)
}

// revoke posts /revoke for one credential-record serial and reports
// whether this call performed the revocation.
func (g *gatewayClient) revoke(service string, serial uint64) (bool, error) {
	body, err := json.Marshal(gateway.RevokeRequest{Service: service, Serial: serial, Reason: "bench: session end"})
	if err != nil {
		return false, err
	}
	code, out, err := g.post("/revoke", body)
	if err != nil {
		return false, err
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("/revoke: HTTP %d: %s", code, bytes.TrimSpace(out))
	}
	var r core.RemoteRevokeResponse
	if err := json.Unmarshal(out, &r); err != nil {
		return false, fmt.Errorf("/revoke: bad response %q: %w", out, err)
	}
	return r.Revoked, nil
}

// ow2Validator is the direct-to-service client: core.RemoteValidator with
// batching off over a pooled OW2 connection.
type ow2Validator struct {
	tcp *rpc.TCPClient
	v   *core.RemoteValidator
}

// dialValidator connects to an OW2 listener. wrap, when set, interposes
// on the rpc.Caller seam (the traced run's client-side span).
func dialValidator(addr string, conns int, wrap func(rpc.Caller) rpc.Caller) (*ow2Validator, error) {
	tcp, err := rpc.DialTCPPool(addr, callTimeout, conns)
	if err != nil {
		return nil, err
	}
	var caller rpc.Caller = tcp
	if wrap != nil {
		caller = wrap(caller)
	}
	return &ow2Validator{tcp: tcp, v: core.NewRemoteValidator("bench", caller, -1, nil)}, nil
}

func (o *ow2Validator) close() { o.tcp.Close() }

// validate returns the issuer's verdict; an authoritative refusal
// (revoked, unknown, bad signature) is valid=false, not an error.
func (o *ow2Validator) validate(h *holder) (bool, error) {
	err := o.v.ValidateRMC(h.Files, principalID(h.Name))
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, core.ErrRevoked):
		return false, nil
	default:
		return false, err
	}
}
