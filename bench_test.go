package oasis

// Benchmarks regenerating every figure/scenario experiment of the paper
// (see DESIGN.md Sect. 3 and EXPERIMENTS.md). Each benchmark measures the
// per-operation core of one experiment; cmd/benchtab prints the full
// paper-style tables using the same code in internal/experiments.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cert"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/sign"
	"repro/internal/trust"
)

// ---------------------------------------------------------------------------
// E1 / Fig. 1 — prerequisite chains.
// ---------------------------------------------------------------------------

func BenchmarkFig1PrerequisiteChain(b *testing.B) {
	for _, depth := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			w := experiments.NewWorld()
			defer w.Close()
			services := make([]*core.Service, depth)
			for layer := 0; layer < depth; layer++ {
				name := fmt.Sprintf("s%d", layer)
				pol := fmt.Sprintf("%s.r <- env ok.", name)
				if layer > 0 {
					pol = fmt.Sprintf("%s.r <- s%d.r keep [1].", name, layer-1)
				}
				svc, err := w.Service(name, pol, false)
				if err != nil {
					b.Fatal(err)
				}
				if layer == 0 {
					experiments.AlwaysTrue(svc, "ok")
				}
				services[layer] = svc
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := experiments.NewSession()
				for layer := 0; layer < depth; layer++ {
					rmc, err := services[layer].Activate(sess.PrincipalID(),
						experiments.Role(fmt.Sprintf("s%d", layer), "r"), sess.Credentials())
					if err != nil {
						b.Fatal(err)
					}
					sess.AddRMC(rmc)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E2 / Fig. 2 — role entry and service use, callback vs cached validation.
// ---------------------------------------------------------------------------

func benchFig2Invoke(b *testing.B, cached bool) {
	w := experiments.NewWorld()
	defer w.Close()
	login, err := w.Service("login", `login.user <- env ok.`, false)
	if err != nil {
		b.Fatal(err)
	}
	experiments.AlwaysTrue(login, "ok")
	guard, err := w.Service("guard", `auth enter <- login.user.`, cached)
	if err != nil {
		b.Fatal(err)
	}
	sess := experiments.NewSession()
	rmc, err := login.Activate(sess.PrincipalID(), experiments.Role("login", "user"), core.Presented{})
	if err != nil {
		b.Fatal(err)
	}
	sess.AddRMC(rmc)
	creds := sess.Credentials()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2InvokeCallback(b *testing.B) { benchFig2Invoke(b, false) }

func BenchmarkFig2InvokeCached(b *testing.B) { benchFig2Invoke(b, true) }

func BenchmarkFig2RoleEntry(b *testing.B) {
	w := experiments.NewWorld()
	defer w.Close()
	login, err := w.Service("login", `login.user <- env ok.`, false)
	if err != nil {
		b.Fatal(err)
	}
	experiments.AlwaysTrue(login, "ok")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := experiments.NewSession()
		if _, err := login.Activate(sess.PrincipalID(),
			experiments.Role("login", "user"), core.Presented{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E3 / Fig. 3 — cross-domain EHR operations.
// ---------------------------------------------------------------------------

func BenchmarkFig3CrossDomainEHR(b *testing.B) {
	// Measure steady-state request/append throughput at a fixed scale;
	// the full sweep lives in cmd/benchtab -exp fig3.
	row, err := experiments.RunFig3(4, 1000, b.N+1)
	if err != nil {
		b.Fatal(err)
	}
	if !row.AuditOK {
		b.Fatal("audit incomplete")
	}
	b.ReportMetric(float64(row.PerOp.Nanoseconds()), "ns/op-measured")
}

// ---------------------------------------------------------------------------
// E4 / Fig. 4 — certificate cryptography.
// ---------------------------------------------------------------------------

func BenchmarkFig4RMCIssue(b *testing.B) {
	for _, params := range []int{0, 4, 8} {
		b.Run(fmt.Sprintf("params=%d", params), func(b *testing.B) {
			ring, err := sign.NewKeyRing(2, nil)
			if err != nil {
				b.Fatal(err)
			}
			terms := make([]names.Term, params)
			for i := range terms {
				terms[i] = names.Atom(fmt.Sprintf("p%d", i))
			}
			role := names.MustRole(names.MustRoleName("svc", "r", params), terms...)
			ref := cert.CRR{Issuer: "svc", Serial: 1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cert.IssueRMC(ring, "principal", role, ref); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig4RMCValidate(b *testing.B) {
	ring, err := sign.NewKeyRing(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	role := names.MustRole(names.MustRoleName("svc", "r", 2),
		names.Atom("d1"), names.Int(42))
	rmc, err := cert.IssueRMC(ring, "principal", role, cert.CRR{Issuer: "svc", Serial: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rmc.Verify(ring, "principal"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E5 / Fig. 5 — revocation cascade.
// ---------------------------------------------------------------------------

func BenchmarkFig5RevocationCascade(b *testing.B) {
	for _, cfg := range []struct {
		shape string
		n     int
	}{
		{"star", 100}, {"star", 1000}, {"chain", 100},
	} {
		b.Run(fmt.Sprintf("%s-%d", cfg.shape, cfg.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := experiments.RunFig5(cfg.n, cfg.shape)
				if err != nil {
					b.Fatal(err)
				}
				if !row.AllCollapsed {
					b.Fatal("cascade incomplete")
				}
				b.ReportMetric(float64(row.RevokeLatency.Nanoseconds()), "collapse-ns")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6 / Sect. 4.1 — challenge-response.
// ---------------------------------------------------------------------------

func BenchmarkChallengeResponse(b *testing.B) {
	key, err := sign.NewSessionKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	challenger := sign.NewChallenger(time.Minute, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := challenger.Issue(key.Public)
		if err != nil {
			b.Fatal(err)
		}
		if err := challenger.Check(key.Respond(ch)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E7 / Sect. 5 — visiting doctor across domains.
// ---------------------------------------------------------------------------

func BenchmarkVisitingDoctor(b *testing.B) {
	row, err := experiments.RunSect5(b.N)
	if err != nil {
		b.Fatal(err)
	}
	if row.Activated != b.N {
		b.Fatalf("activated %d of %d", row.Activated, b.N)
	}
	b.ReportMetric(float64(row.PerActivation.Nanoseconds()), "ns/activation-measured")
}

// ---------------------------------------------------------------------------
// E8 / Sect. 6 — trust decisions.
// ---------------------------------------------------------------------------

func BenchmarkTrustDecision(b *testing.B) {
	for _, histLen := range []int{10, 100} {
		b.Run(fmt.Sprintf("history=%d", histLen), func(b *testing.B) {
			sim, err := trust.NewSimulation(3)
			if err != nil {
				b.Fatal(err)
			}
			engine := trust.NewEngine(trust.DomainAwarePolicy(0.1), sim.Directory.Validate)
			hist := sim.HonestHistory("alice", histLen, 0.9)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.Decide("alice", hist)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — baselines.
// ---------------------------------------------------------------------------

func BenchmarkBaselineACLCheck(b *testing.B) {
	acl := baseline.NewACLService()
	for d := 0; d < 100; d++ {
		for p := 0; p < 100; p++ {
			acl.Grant(fmt.Sprintf("record_%d", p), fmt.Sprintf("dr_%d", d), baseline.RightRead)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !acl.Check("record_50", "dr_50", baseline.RightRead) {
			b.Fatal("acl check failed")
		}
	}
}

func BenchmarkBaselineRBAC0Check(b *testing.B) {
	registrations := make(map[string][]string)
	for d := 0; d < 100; d++ {
		for p := 0; p < 100; p++ {
			registrations[fmt.Sprintf("dr_%d", d)] = append(
				registrations[fmt.Sprintf("dr_%d", d)], fmt.Sprintf("p_%d_%d", d, p))
		}
	}
	rbac := baseline.BuildPatientAccess(registrations)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rbac.Check("dr_50", "read_record_p_50_50") {
			b.Fatal("rbac check failed")
		}
	}
}

func BenchmarkOASISParametrisedAuthorize(b *testing.B) {
	// The OASIS counterpart of the two baseline checks: one parametrised
	// auth rule over a fact store, any number of doctors/patients.
	w := experiments.NewWorld()
	defer w.Close()
	svc, err := w.Service("h", `
h.doctor(D) <- env is_doctor(D).
auth read_record(D, P) <- h.doctor(D), env registered(D, P).
`, false)
	if err != nil {
		b.Fatal(err)
	}
	db := newRegistrationStore(b, 100, 100)
	svc.Env().RegisterStore("registered", db.store, "registered")
	svc.Env().Register("is_doctor", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	sess := experiments.NewSession()
	rmc, err := svc.Activate(sess.PrincipalID(),
		experiments.Role("h", "doctor", names.Atom("dr_50")), core.Presented{})
	if err != nil {
		b.Fatal(err)
	}
	sess.AddRMC(rmc)
	creds := sess.Credentials()
	args := []names.Term{names.Atom("dr_50"), names.Atom("p_50_50")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Invoke(sess.PrincipalID(), "read_record", args, creds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRevocationActiveVsPolling(b *testing.B) {
	// Reported via custom metrics: active collapse latency in ns per run
	// against the analytic polling latency for a 10s interval.
	for i := 0; i < b.N; i++ {
		row, err := experiments.RunRevocationComparison(100, 10*time.Second, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.ActiveLatency.Nanoseconds()), "active-ns")
		b.ReportMetric(float64(row.PollingLatency.Nanoseconds()), "polling-ns")
	}
}

// Soak: per-op cost of the churn workload, invariants checked throughout.
func BenchmarkSoakWorkload(b *testing.B) {
	row, err := experiments.RunSoak(5, 50, b.N+100, 42)
	if err != nil {
		b.Fatal(err)
	}
	if row.Violations != 0 {
		b.Fatalf("%d invariant violations", row.Violations)
	}
	b.ReportMetric(float64(row.PerOp.Nanoseconds()), "ns/op-measured")
}

// Ablation: end-to-end sealing cost on callback validation (Sect. 4.1
// encrypted communication vs in-clear local traffic).
func BenchmarkSealedCallbackValidation(b *testing.B) {
	for _, sealed := range []bool{false, true} {
		name := "clear"
		if sealed {
			name = "sealed"
		}
		b.Run(name, func(b *testing.B) {
			broker := NewBroker()
			defer broker.Close()
			bus := NewBus()
			var loginCaller, guardCaller interface {
				Call(service, method string, body []byte) ([]byte, error)
			} = bus, bus
			var loginWrap func(h func(string, []byte) ([]byte, error)) func(string, []byte) ([]byte, error)
			guardWrap := func(h func(string, []byte) ([]byte, error)) func(string, []byte) ([]byte, error) {
				return h
			}
			loginWrap = guardWrap
			if sealed {
				loginID, err := NewSealIdentity(nil)
				if err != nil {
					b.Fatal(err)
				}
				guardID, err := NewSealIdentity(nil)
				if err != nil {
					b.Fatal(err)
				}
				dir := NewSealDirectory()
				dir.Add("login", loginID.PublicKey())
				dir.Add("guard", guardID.PublicKey())
				loginCaller = NewSealedCaller(loginID, bus, dir)
				guardCaller = NewSealedCaller(guardID, bus, dir)
				loginWrap = func(h func(string, []byte) ([]byte, error)) func(string, []byte) ([]byte, error) {
					return SealedHandler(loginID, h)
				}
				guardWrap = func(h func(string, []byte) ([]byte, error)) func(string, []byte) ([]byte, error) {
					return SealedHandler(guardID, h)
				}
			}
			login, err := NewService(Config{
				Name:   "login",
				Policy: MustParsePolicy(`login.user <- env ok.`),
				Broker: broker,
				Caller: loginCaller,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer login.Close()
			experiments.AlwaysTrue(login, "ok")
			bus.Register("login", loginWrap(login.Handler()))
			guard, err := NewService(Config{
				Name:   "guard",
				Policy: MustParsePolicy(`auth enter <- login.user.`),
				Broker: broker,
				Caller: guardCaller,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer guard.Close()
			bus.Register("guard", guardWrap(guard.Handler()))

			sess := experiments.NewSession()
			rmc, err := login.Activate(sess.PrincipalID(),
				experiments.Role("login", "user"), Presented{})
			if err != nil {
				b.Fatal(err)
			}
			sess.AddRMC(rmc)
			creds := sess.Credentials()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Multi-core hot path (run with -cpu 1,4,8). The parallel variants drive
// the same operations as their serial counterparts from every GOMAXPROCS
// worker at once, measuring how the engine behaves when many sessions hit
// one service concurrently. On a host with fewer cores than -cpu they
// measure oversubscription, not scaling.
// ---------------------------------------------------------------------------

// BenchmarkFig2InvokeCachedParallel is the cache-hit invoke steady state,
// the tightest loop in the engine. Its obs=off / obs=on pair prices the
// observability layer: obs=on threads a metrics registry and a tracer
// through both services, and the budget is <5% over obs=off.
func BenchmarkFig2InvokeCachedParallel(b *testing.B) {
	for _, instrumented := range []bool{false, true} {
		name := "obs=off"
		if instrumented {
			name = "obs=on"
		}
		b.Run(name, func(b *testing.B) {
			w := experiments.NewWorld()
			defer w.Close()
			if instrumented {
				w.Obs = obs.NewRegistry()
				w.Trace = obs.NewTracer(4096)
			}
			login, err := w.Service("login", `login.user <- env ok.`, false)
			if err != nil {
				b.Fatal(err)
			}
			experiments.AlwaysTrue(login, "ok")
			guard, err := w.Service("guard", `auth enter <- login.user.`, true)
			if err != nil {
				b.Fatal(err)
			}
			sess := experiments.NewSession()
			rmc, err := login.Activate(sess.PrincipalID(), experiments.Role("login", "user"), core.Presented{})
			if err != nil {
				b.Fatal(err)
			}
			sess.AddRMC(rmc)
			creds := sess.Credentials()
			// Warm the ECR cache so the steady state is measured.
			if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, creds); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkFig4RMCValidateParallel(b *testing.B) {
	ring, err := sign.NewKeyRing(2, nil)
	if err != nil {
		b.Fatal(err)
	}
	role := names.MustRole(names.MustRoleName("svc", "r", 2),
		names.Atom("d1"), names.Int(42))
	rmc, err := cert.IssueRMC(ring, "principal", role, cert.CRR{Issuer: "svc", Serial: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := rmc.Verify(ring, "principal"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOASISParametrisedAuthorizeParallel(b *testing.B) {
	w := experiments.NewWorld()
	defer w.Close()
	svc, err := w.Service("h", `
h.doctor(D) <- env is_doctor(D).
auth read_record(D, P) <- h.doctor(D), env registered(D, P).
`, false)
	if err != nil {
		b.Fatal(err)
	}
	db := newRegistrationStore(b, 100, 100)
	svc.Env().RegisterStore("registered", db.store, "registered")
	svc.Env().Register("is_doctor", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	sess := experiments.NewSession()
	rmc, err := svc.Activate(sess.PrincipalID(),
		experiments.Role("h", "doctor", names.Atom("dr_50")), core.Presented{})
	if err != nil {
		b.Fatal(err)
	}
	sess.AddRMC(rmc)
	creds := sess.Credentials()
	args := []names.Term{names.Atom("dr_50"), names.Atom("p_50_50")}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := svc.Invoke(sess.PrincipalID(), "read_record", args, creds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMixedSessionChurnParallel is the contention workload: every
// worker runs full session lifecycles (activate at login, a burst of
// cached invocations at the guard, then logout via revocation) against the
// same pair of services, so activation writes, validation-cache fills,
// revocation fan-out and invoke reads all race.
func BenchmarkMixedSessionChurnParallel(b *testing.B) {
	w := experiments.NewWorld()
	defer w.Close()
	login, err := w.Service("login", `login.user <- env ok.`, false)
	if err != nil {
		b.Fatal(err)
	}
	experiments.AlwaysTrue(login, "ok")
	guard, err := w.Service("guard", `auth enter <- login.user.`, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := experiments.NewSession()
		principal := sess.PrincipalID()
		roleUser := experiments.Role("login", "user")
		for pb.Next() {
			rmc, err := login.Activate(principal, roleUser, core.Presented{})
			if err != nil {
				b.Fatal(err)
			}
			creds := core.Presented{RMCs: []cert.RMC{rmc}}
			for k := 0; k < 4; k++ {
				if _, err := guard.Invoke(principal, "enter", nil, creds); err != nil {
					b.Fatal(err)
				}
			}
			login.Deactivate(rmc.Ref.Serial, "logout")
		}
	})
}

// BenchmarkEndSessionManyPrincipals measures session teardown while many
// other principals hold live roles at the same service: each iteration
// activates one role for a fresh principal and immediately ends its
// session, against a background population of n live credential records.
func BenchmarkEndSessionManyPrincipals(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("principals=%d", n), func(b *testing.B) {
			w := experiments.NewWorld()
			defer w.Close()
			login, err := w.Service("login", `login.user <- env ok.`, false)
			if err != nil {
				b.Fatal(err)
			}
			experiments.AlwaysTrue(login, "ok")
			roleUser := experiments.Role("login", "user")
			for i := 0; i < n; i++ {
				if _, err := login.Activate(fmt.Sprintf("resident_%d", i), roleUser, core.Presented{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := fmt.Sprintf("visitor_%d", i)
				if _, err := login.Activate(p, roleUser, core.Presented{}); err != nil {
					b.Fatal(err)
				}
				if got := login.EndSession(p); got != 1 {
					b.Fatalf("ended %d sessions for %s, want 1", got, p)
				}
			}
		})
	}
}

func BenchmarkPollingTick(b *testing.B) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	p := baseline.NewPollingRevoker(clk, time.Second)
	for i := 0; i < 1000; i++ {
		p.Watch(fmt.Sprintf("cert%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		p.Tick()
	}
}

// newRegistrationStore populates doctors x patients registrations.
type registrationStore struct{ store *storeAlias }

type storeAlias = FactStore

func newRegistrationStore(b *testing.B, doctors, patients int) registrationStore {
	b.Helper()
	db := NewFactStore()
	for d := 0; d < doctors; d++ {
		for p := 0; p < patients; p++ {
			if _, err := db.Assert("registered",
				names.Atom(fmt.Sprintf("dr_%d", d)),
				names.Atom(fmt.Sprintf("p_%d_%d", d, p))); err != nil {
				b.Fatal(err)
			}
		}
	}
	return registrationStore{store: db}
}

// ---------------------------------------------------------------------------
// Sequencer write path: pure mutation throughput. Run with -cpu 1,4,8 to
// see the per-shard apply loop coalesce concurrent issue/revoke traffic.
// ---------------------------------------------------------------------------

// writeWorld builds a single-service world for write-path benchmarks,
// optionally journaled into a real durable log (NoSync, so the benchmark
// measures batching and ordering, not the disk).
func writeWorld(b *testing.B, journaled bool) (*experiments.World, *core.Service) {
	b.Helper()
	w := experiments.NewWorld()
	if journaled {
		dlog, err := durable.Open(durable.Options{Dir: b.TempDir(), NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		w.Journal = dlog
		w.OnClose = append(w.OnClose, func() { dlog.Close() }) //nolint:errcheck
	}
	login, err := w.Service("login", `login.user <- env ok.`, false)
	if err != nil {
		b.Fatal(err)
	}
	experiments.AlwaysTrue(login, "ok")
	return w, login
}

// BenchmarkWritePathIssue measures pure credential issue throughput: every
// iteration is one Activate routed through the per-shard sequencer.
func BenchmarkWritePathIssue(b *testing.B) {
	w, login := writeWorld(b, false)
	defer w.Close()
	roleUser := experiments.Role("login", "user")
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		principal := fmt.Sprintf("p%d", worker.Add(1))
		for pb.Next() {
			if _, err := login.Activate(principal, roleUser, core.Presented{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWritePathIssueRevoke measures the issue+revoke pair — the
// sequencer's mixed mutation stream, including revocation event publish.
func BenchmarkWritePathIssueRevoke(b *testing.B) {
	w, login := writeWorld(b, false)
	defer w.Close()
	roleUser := experiments.Role("login", "user")
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		principal := fmt.Sprintf("p%d", worker.Add(1))
		for pb.Next() {
			rmc, err := login.Activate(principal, roleUser, core.Presented{})
			if err != nil {
				b.Fatal(err)
			}
			login.Deactivate(rmc.Ref.Serial, "logout")
		}
	})
}

// BenchmarkWritePathIssueRevokeJournaled is the same pair against a real
// durable log: concurrent mutations on one shard commit as one multi-record
// frame group instead of one group-commit window each.
func BenchmarkWritePathIssueRevokeJournaled(b *testing.B) {
	w, login := writeWorld(b, true)
	defer w.Close()
	roleUser := experiments.Role("login", "user")
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		principal := fmt.Sprintf("p%d", worker.Add(1))
		for pb.Next() {
			rmc, err := login.Activate(principal, roleUser, core.Presented{})
			if err != nil {
				b.Fatal(err)
			}
			login.Deactivate(rmc.Ref.Serial, "logout")
		}
	})
}
