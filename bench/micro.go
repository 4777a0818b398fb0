package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/seq"
	"repro/internal/sign"
)

// microBudget is how long each micro-timed call is repeated for. The
// figures are per-layer budgets on this workload's own inputs, not
// gated; they only need to be steady enough to see a layer move.
const microBudget = 150 * time.Millisecond

// timeOp repeats fn for about microBudget and returns the mean time and
// heap allocations per call.
func timeOp(fn func(i int)) (nsPerOp, allocsPerOp float64, n int) {
	fn(0) // first call pays lazy set-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for time.Since(start) < microBudget {
		for k := 0; k < 64; k++ {
			fn(n)
			n++
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), n
}

// recordingCaller forwards calls to a handler and keeps the last request
// and response bodies, which is how the micro-timings get hold of real
// wire bodies without reaching into the codec's private encoders.
type recordingCaller struct {
	h         rpc.Handler
	method    string
	req, resp []byte
}

func (c *recordingCaller) Call(_, method string, body []byte) ([]byte, error) {
	out, err := c.h(method, body)
	c.method = method
	c.req = append(c.req[:0], body...)
	c.resp = append(c.resp[:0], out...)
	return out, err
}

// replayCaller answers every call instantly with one canned response: an
// issuer that costs nothing, so what remains is the caller's own layer.
type replayCaller struct{ resp []byte }

func (c replayCaller) Call(_, _ string, _ []byte) ([]byte, error) { return c.resp, nil }

// microService is a journaled login+files pair in this process, for the
// calls that need a live Service rather than a socket.
type microService struct {
	login, files *core.Service
	dlog         *durable.Log
	broker       *event.Broker
}

func newMicroService(dir string) (*microService, error) {
	ms := &microService{broker: event.NewBroker()}
	var err error
	if ms.dlog, err = durable.Open(durable.Options{Dir: dir}); err != nil {
		return nil, err
	}
	local := rpc.NewLoopback()
	mk := func(name, text string) (*core.Service, error) {
		svc, err := core.NewService(core.Config{
			Name: name, Policy: policy.MustParse(text), Broker: ms.broker, Caller: local,
			CacheValidations: true, Journal: ms.dlog,
		})
		if err != nil {
			return nil, err
		}
		svc.Env().Register("registered", func(_ []names.Term, s names.Substitution) []names.Substitution {
			return []names.Substitution{s}
		})
		local.Register(name, svc.Handler())
		return svc, svc.InstallKeys()
	}
	if ms.login, err = mk("login", loginPolicy); err != nil {
		return nil, err
	}
	if ms.files, err = mk("files", filesPolicy); err != nil {
		return nil, err
	}
	return ms, nil
}

func (ms *microService) close() {
	ms.files.Close()
	ms.login.Close()
	ms.broker.Close()
	ms.dlog.Close() //nolint:errcheck // scratch state
}

// microTimings times each layer's public calls on the workload's own
// generated inputs (M in the metric dictionary).
func microTimings(h *harness, c *creds, pop population, m *measured) error {
	live := c.Live
	at := func(i int) *holder { return &live[i%len(live)] }

	// cert: binary codec on the RMCs the workload presents.
	var buf []byte
	ns, _, n := timeOp(func(i int) { buf = cert.AppendRMCBinary(buf[:0], at(i).Files) })
	m.set("cert.rmc_encode_ns", ns, n)
	m.set("cert.rmc_wire_bytes", float64(len(buf)), 1)
	wire := make([][]byte, 256)
	for i := range wire {
		wire[i] = cert.EncodeRMCBinary(at(i).Files)
	}
	ns, _, n = timeOp(func(i int) { cert.ReadRMCBinary(wire[i%len(wire)]) }) //nolint:errcheck // timed call
	m.set("cert.rmc_decode_ns", ns, n)

	// sign: HMAC over fields shaped like an RMC's protected fields.
	ring, err := sign.NewKeyRing(2, nil)
	if err != nil {
		return err
	}
	fields := func(i int) (string, [][]byte) {
		hd := at(i)
		return principalID(hd.Name), [][]byte{
			[]byte(hd.Files.Role.Name.String()), []byte(hd.Name), []byte(hd.Files.Ref.Issuer), make([]byte, 12),
		}
	}
	ns, _, n = timeOp(func(i int) { pid, f := fields(i); ring.Sign(pid, f...) })
	m.set("sign.sign_ns", ns, n)
	pid0, f0 := fields(0)
	sig, keyID := ring.Sign(pid0, f0...)
	ns, _, n = timeOp(func(int) { ring.Verify(keyID, sig, pid0, f0...) }) //nolint:errcheck // timed call
	m.set("sign.verify_ns", ns, n)

	// seq: Submit with a no-op apply.
	sq := seq.New(seq.Config[int]{Shards: 8, Apply: func(int, []int) {}})
	ns, _, n = timeOp(func(i int) { sq.Submit(i, i) }) //nolint:errcheck // never closed here
	sq.Close()
	m.set("seq.submit_ns", ns, n)

	// rpc: a 64-byte echo over a real loopback connection.
	srv := rpc.NewTCPServer()
	srv.Register("echo", func(_ string, body []byte) ([]byte, error) { return body, nil })
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	go srv.Serve(ln) //nolint:errcheck // ends with Close
	echo, err := rpc.DialTCP(ln.Addr().String(), callTimeout)
	if err != nil {
		srv.Close()
		return err
	}
	payload := bytes.Repeat([]byte{0x5a}, 64)
	ns, allocs, n := timeOp(func(int) { echo.Call("echo", "echo", payload) }) //nolint:errcheck // timed call
	echo.Close()
	srv.Close()
	m.set("rpc.echo_rtt_us", ns/1e3, n)
	m.set("rpc.echo_allocs", allocs, n)

	// core: a journaled service pair in this process.
	dir, err := h.tempDir("state-micro-")
	if err != nil {
		return err
	}
	ms, err := newMicroService(dir)
	if err != nil {
		return err
	}
	defer ms.close()
	// Activate with the prerequisite RMC presented (policy evaluation,
	// callback validation of the login RMC, signing, journal append).
	fresh := pop.Churn
	logins := make([]cert.RMC, len(fresh))
	for i, u := range fresh {
		if logins[i], err = ms.login.Activate(principalID(u), names.MustRole(loginUser, names.Atom(u)), core.Presented{}); err != nil {
			return fmt.Errorf("micro activate login: %w", err)
		}
	}
	var filesRMC []cert.RMC
	start := time.Now()
	for i, u := range fresh {
		r, err := ms.files.Activate(principalID(u), names.MustRole(filesReader, names.Atom(u)), core.Presented{RMCs: logins[i : i+1]})
		if err != nil {
			return fmt.Errorf("micro activate files: %w", err)
		}
		filesRMC = append(filesRMC, r)
	}
	m.set("core.activate_us", micros(time.Since(start))/float64(len(fresh)), len(fresh))

	// Server-side validation of one certificate: the handler on a real
	// wire body, captured from a RemoteValidator (batching off).
	rec := &recordingCaller{h: ms.files.Handler()}
	rv := core.NewRemoteValidator("micro", rec, -1, nil)
	if err := rv.ValidateRMC(filesRMC[0], principalID(fresh[0])); err != nil {
		return fmt.Errorf("micro validate: %w", err)
	}
	handler := ms.files.Handler()
	_, allocs, n = timeOp(func(int) { handler(rec.method, rec.req) }) //nolint:errcheck // timed call
	m.set("core.validate_allocs", allocs, n)

	// Edge cache over an instant issuer: a resident key, then keys never
	// seen before (miss, fill and eviction), less the uncached path.
	stub := replayCaller{resp: rec.resp}
	stubV := core.NewRemoteValidator("micro-stub", stub, -1, nil)
	one := &holder{Name: fresh[0], Files: filesRMC[0]}
	base, _, _ := timeOp(func(int) { stubV.ValidateRMC(one.Files, principalID(one.Name)) }) //nolint:errcheck // timed call
	ec := core.NewEdgeCache(stubV, 1024)
	ec.Attach()
	hit, _, n := timeOp(func(int) { ec.ValidateRMC(one.Files, principalID(one.Name)) }) //nolint:errcheck // timed call
	m.set("core.edgecache_hit_ns", hit, n)
	miss, _, n := timeOp(func(i int) { hd := at(i); ec.ValidateRMC(hd.Files, principalID(hd.Name)) }) //nolint:errcheck // timed call
	m.set("core.edgecache_miss_extra_ns", miss-base, n)

	// Gateway handler over the same instant issuer, on a recorder: HTTP
	// routing, admission, JSON decode and encode, and nothing else.
	gw, err := gateway.New(gateway.Config{Caller: stub, Validator: stubV, MaxInflight: 256})
	if err != nil {
		return err
	}
	gh := gw.Handler()
	ns, allocs, n = timeOp(func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/validate", bytes.NewReader(at(i).Body))
		gh.ServeHTTP(httptest.NewRecorder(), req)
	})
	m.set("gateway.handler_stub_ns", ns, n)
	m.set("gateway.handler_stub_allocs", allocs, n)
	return nil
}

// replayTiming copies the leader's journal as the run left it and times
// durable.Open plus Recovered on the copy: what a restart replays.
func replayTiming(h *harness, stateDir string, m *measured) error {
	dir, err := h.tempDir("state-replay-")
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(stateDir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	start := time.Now()
	l, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("replay copy of journal: %w", err)
	}
	defer l.Close()
	if _, err := l.Recovered(); err != nil {
		return err
	}
	elapsed := time.Since(start)
	records := l.ReplayStats().Records
	if records == 0 {
		return fmt.Errorf("replay copy of journal: no records")
	}
	m.set("durable.replay_us_per_krecord", micros(elapsed)/float64(records)*1000, records)
	return nil
}
