package replica

import (
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/sign"
)

// testLeader is a journaling oasisd-in-miniature: one service, a
// shipper, a wire listener.
type testLeader struct {
	dir    string
	log    *durable.Log
	broker *event.Broker
	svc    *core.Service
	ship   *Shipper
	srv    *rpc.TCPServer
	addr   string
}

func startTestLeader(t *testing.T, leaseTTL time.Duration) *testLeader {
	t.Helper()
	dir := t.TempDir()
	dlog, err := durable.Open(durable.Options{Dir: dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	broker := event.NewBroker()
	svc, err := core.NewService(core.Config{
		Name:    "login",
		Policy:  policy.MustParse(`login.user <- env ok.`),
		Broker:  broker,
		Journal: dlog,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	secrets, retain := svc.ExportKeys()
	if err := dlog.AppendWait(durable.Record{Op: durable.OpKeys, Service: "login", Retain: retain, Secrets: secrets}); err != nil {
		t.Fatal(err)
	}
	ship := NewShipper(ShipperConfig{Log: dlog, Node: "L", LeaseTTL: leaseTTL, Heartbeat: 20 * time.Millisecond})
	srv := rpc.NewTCPServer()
	ship.Register(srv)
	srv.Register("login", svc.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck
	tl := &testLeader{dir: dir, log: dlog, broker: broker, svc: svc, ship: ship, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() {
		tl.srv.Close()
		tl.svc.Close()
		tl.log.Close() //nolint:errcheck
		tl.broker.Close()
	})
	return tl
}

func (tl *testLeader) activate(t *testing.T) (cert.RMC, string) {
	t.Helper()
	sess, err := core.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	rmc, err := tl.svc.Activate(sess.PrincipalID(), names.MustRole(names.MustRoleName("login", "user", 0)), core.Presented{})
	if err != nil {
		t.Fatal(err)
	}
	return rmc, sess.PrincipalID()
}

func signRing(ss *durable.ServiceState) (*sign.KeyRing, error) {
	return sign.NewKeyRingFromSecrets(ss.Secrets, ss.Retain, nil)
}

func startTestFollower(t *testing.T, leaderAddr string, staleAfter time.Duration) *Follower {
	t.Helper()
	return startTestFollowerObs(t, leaderAddr, staleAfter, nil)
}

func startTestFollowerObs(t *testing.T, leaderAddr string, staleAfter time.Duration, reg *obs.Registry) *Follower {
	t.Helper()
	broker := event.NewBroker()
	pool := rpc.NewDirectoryPool(2*time.Second, 1)
	pool.Add(Service, leaderAddr)
	pool.Add("login", leaderAddr)
	f, err := NewFollower(FollowerConfig{
		Leader:      leaderAddr,
		Broker:      broker,
		Caller:      pool,
		StaleAfter:  staleAfter,
		DialTimeout: time.Second,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
		Obs:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	t.Cleanup(func() {
		f.Close()
		pool.Close()
		broker.Close()
	})
	return f
}

// waitConverged polls until the follower's mirrored state equals a full
// replay of the leader's journal.
func waitConverged(t *testing.T, tl *testLeader, f *Follower) {
	t.Helper()
	if err := tl.log.Sync(); err != nil {
		t.Fatal(err)
	}
	disk, err := durable.ReadState(tl.dir)
	if err != nil {
		t.Fatal(err)
	}
	want := StateHash(disk)
	deadline := time.Now().Add(10 * time.Second)
	for f.StateHash() != want {
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: %s want %s (cursor %v)", f.StateHash(), want, f.Cursor())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// handlerCaller calls one wire handler in process and returns its errors
// unwrapped, so errors.Is still sees the handler's sentinels (ErrStale).
type handlerCaller rpc.Handler

func (h handlerCaller) Call(_, method string, body []byte) ([]byte, error) { return h(method, body) }

// validateOn asks h for a verdict on rmc the way a remote service does:
// the binary validate_rmc call of core.RemoteValidator. It reports the
// issuer's verdict, or the error that prevented one.
func validateOn(t *testing.T, h rpc.Handler, rmc cert.RMC, principal string) (bool, error) {
	t.Helper()
	err := core.NewRemoteValidator("test", handlerCaller(h), -1, nil).ValidateRMC(rmc, principal)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, core.ErrRevoked):
		return false, nil
	default:
		return false, err
	}
}

// TestFollowerServesReadsAndProxiesWrites is the end-to-end follower
// story over a real wire: replicate issued credentials, answer
// validation locally (correctly, including replicated revocations),
// proxy a revoke to the leader under the lease, and fail closed — reads
// past the staleness bound, writes past the lease — once the leader is
// gone.
func TestFollowerServesReadsAndProxiesWrites(t *testing.T) {
	tl := startTestLeader(t, 300*time.Millisecond)
	rmcKeep, pKeep := tl.activate(t)
	rmcGone, pGone := tl.activate(t)
	if !tl.svc.Revoke(rmcGone.Ref.Serial, "compromised") {
		t.Fatal("leader revoke failed")
	}

	f := startTestFollower(t, tl.addr, 600*time.Millisecond)
	waitConverged(t, tl, f)

	h := f.Handler("login")
	if valid, err := validateOn(t, h, rmcKeep, pKeep); err != nil || !valid {
		t.Fatalf("live credential on follower: valid=%v err=%v", valid, err)
	}
	if valid, err := validateOn(t, h, rmcGone, pGone); err != nil || valid {
		t.Fatalf("revoked credential on follower: valid=%v err=%v, want invalid", valid, err)
	}

	// A write through the follower is proxied to the leader...
	deadline := time.Now().Add(5 * time.Second)
	for !f.Leased() {
		if time.Now().After(deadline) {
			t.Fatal("follower never acquired a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body, err := json.Marshal(core.RemoteRevokeRequest{Serial: rmcKeep.Ref.Serial, Reason: "via replica"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h("revoke", body)
	if err != nil {
		t.Fatalf("proxied revoke: %v", err)
	}
	var rr core.RemoteRevokeResponse
	if err := json.Unmarshal(out, &rr); err != nil || !rr.Revoked {
		t.Fatalf("proxied revoke = %s err=%v, want revoked", out, err)
	}
	// ...and the revocation replicates back: the follower denies it too.
	waitConverged(t, tl, f)
	if valid, err := validateOn(t, h, rmcKeep, pKeep); err != nil || valid {
		t.Fatalf("credential revoked via proxy still valid=%v err=%v on follower", valid, err)
	}

	// Sever the leader. Reads keep serving inside the staleness bound,
	// then fail closed; writes fail closed once the lease expires.
	tl.srv.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, err := validateOn(t, h, rmcGone, pGone)
		if errors.Is(err, ErrStale) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("reads never failed closed after the leader died")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		_, err := h("revoke", body)
		if errors.Is(err, ErrNoLease) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writes never failed closed after the leader died (last err %v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFollowerResumesAcrossLeaderRestartAndRotation kills the leader
// process-style (listener and all), restarts it on the journal
// directory (epoch advance), compacts (rotation + prune), and asserts
// the follower reconnects, resets where it must, and converges — with
// every pre- and post-restart revocation enforced.
func TestFollowerResumesAcrossLeaderRestartAndRotation(t *testing.T) {
	tl := startTestLeader(t, 300*time.Millisecond)
	rmc1, p1 := tl.activate(t)
	f := startTestFollower(t, tl.addr, 5*time.Second)
	waitConverged(t, tl, f)

	// Leader "crash": sever and close the journal.
	tl.srv.Close()
	tl.svc.Close()
	if err := tl.log.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same directory and the same address (the follower
	// keeps dialing the address it was configured with, exactly like a
	// daemon restart behind a stable endpoint).
	dlog, err := durable.Open(durable.Options{Dir: tl.dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := dlog.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	ss := recovered.Services["login"]
	if ss == nil || len(ss.Secrets) == 0 {
		t.Fatal("restart lost the journaled key ring")
	}
	ring, err := signRing(ss)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := core.NewService(core.Config{
		Name:    "login",
		Policy:  policy.MustParse(`login.user <- env ok.`),
		Broker:  tl.broker,
		Journal: dlog,
		KeyRing: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc2.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	for serial, cr := range ss.CRs {
		if err := svc2.RestoreCR(serial, cr.Subject, cr.Holder, cr.Revoked, cr.Reason); err != nil {
			t.Fatal(err)
		}
	}
	ship2 := NewShipper(ShipperConfig{Log: dlog, Node: "L", LeaseTTL: 300 * time.Millisecond, Heartbeat: 20 * time.Millisecond})
	srv2 := rpc.NewTCPServer()
	ship2.Register(srv2)
	srv2.Register("login", svc2.Handler())
	ln, err := net.Listen("tcp", tl.addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", tl.addr, err)
	}
	go srv2.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		srv2.Close()
		svc2.Close()
		dlog.Close() //nolint:errcheck
	})
	tl.log, tl.svc, tl.srv = dlog, svc2, srv2

	// Post-restart history: revoke the pre-restart credential, rotate
	// the journal, issue more.
	if !svc2.Revoke(rmc1.Ref.Serial, "post-restart revocation") {
		t.Fatal("restarted leader lost the credential record")
	}
	if err := dlog.Compact(); err != nil {
		t.Fatal(err)
	}
	rmc2, p2 := tl.activate(t)

	waitConverged(t, tl, f)
	h := f.Handler("login")
	if valid, err := validateOn(t, h, rmc1, p1); err != nil || valid {
		t.Fatalf("pre-restart credential: valid=%v err=%v, want revoked on follower", valid, err)
	}
	if valid, err := validateOn(t, h, rmc2, p2); err != nil || !valid {
		t.Fatalf("post-restart credential: valid=%v err=%v, want valid on follower", valid, err)
	}
}

// TestFollowerDropsStreamOnDamagedFrame puts a tampering hop between
// leader and follower that flips one byte inside the first batch of
// journal frames. The follower must apply none of that message (not even
// the intact frames in front of the damaged one), drop the stream, and
// come back through a snapshot reset to the leader's exact state.
func TestFollowerDropsStreamOnDamagedFrame(t *testing.T) {
	tl := startTestLeader(t, time.Second)
	tl.activate(t)
	rmc, principal := tl.activate(t)
	if err := tl.log.Sync(); err != nil {
		t.Fatal(err)
	}

	var subs atomic.Int32
	release := make(chan struct{})
	front := rpc.NewTCPServer()
	front.Register(Service, tl.ship.HandleCall)
	front.Register("login", tl.svc.Handler())
	front.RegisterStream(Service, MethodSubscribe, func(method string, body []byte, send func([]byte) error) (func(), error) {
		if subs.Add(1) > 1 {
			<-release // hold the resubscription until the test has looked
			return tl.ship.HandleSubscribe(method, body, send)
		}
		tampered := false
		return tl.ship.HandleSubscribe(method, body, func(b []byte) error {
			if m, err := DecodeMessage(b); err == nil && m.Kind == KindRecs && !tampered {
				tampered = true
				b = append([]byte(nil), b...)
				b[len(b)-1] ^= 0x01 // last payload byte of the last frame
			}
			return send(b)
		})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(ln) //nolint:errcheck
	defer front.Close()

	reg := obs.NewRegistry()
	f := startTestFollowerObs(t, ln.Addr().String(), time.Minute, reg)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Value("repl_apply_errors_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("follower never noticed the damaged frame")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := reg.Value("repl_records_applied_total"); got != 0 {
		t.Fatalf("follower applied %d records out of a message with a damaged frame", got)
	}
	if got, want := f.StateHash(), StateHash(durable.NewState()); got != want {
		t.Fatal("follower state moved on a damaged message")
	}
	if cur := f.Cursor(); cur != (durable.Cursor{}) {
		t.Fatalf("cursor after a damaged message = %v, want zero (snapshot reset on resubscribe)", cur)
	}

	close(release)
	waitConverged(t, tl, f)
	if got := reg.Value("repl_snapshots_applied_total"); got < 2 {
		t.Errorf("repl_snapshots_applied_total = %d, want the initial reset and the one after the damage", got)
	}
	if got := reg.Value("repl_apply_errors_total"); got != 1 {
		t.Errorf("repl_apply_errors_total = %d, want 1", got)
	}
	if valid, err := validateOn(t, f.Handler("login"), rmc, principal); err != nil || !valid {
		t.Errorf("validation after recovery from the damaged stream: valid=%v err=%v", valid, err)
	}
}
