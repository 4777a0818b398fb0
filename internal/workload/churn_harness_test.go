package workload

// Churn is the large-population capacity harness, run at smoke scale by
// TestChurnSmoke: where workload.Run checks the active-security
// invariants on a small richly-connected world, Churn drives a large synthetic principal population through the
// session-lifecycle storms a big deployment sees — login storms, role
// activation bursts, skewed validation traffic with continuous
// revoke/re-login churn, appointment-expiry waves and a deep revocation
// cascade — against live services, and measures what that population costs
// to keep resident and to validate.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/cert"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// ChurnConfig parameterises a capacity run. All randomness derives from
// Seed.
type ChurnConfig struct {
	Seed int64
	// Principals is the resident population: each principal logs in at
	// the issuer and enters a role at the consumer, so the steady state
	// holds two credential records and one cached validation per
	// principal.
	Principals int
	// Ops is the number of validation operations in the churn phase.
	Ops int
	// HotFrac is the fraction of principals that receive 90% of the
	// churn-phase traffic (a hot working set; the remaining 10% of ops
	// spread uniformly). <=0 or >=1 disables the skew.
	HotFrac float64
	// RevokeEvery deactivates a random principal's login every N churn
	// ops — collapsing their entered role by cascade — and immediately
	// logs them back in (0 disables revocation churn).
	RevokeEvery int
	// ApptWaves and ApptsPerWave drive the appointment-expiry phase:
	// each wave issues a batch of short-lived appointment certificates,
	// confirms they authorize, then advances the simulated clock past
	// their expiry and confirms they no longer do.
	ApptWaves    int
	ApptsPerWave int
	// CascadeCerts sizes the final revocation-cascade phase: one root
	// login credential with this many dependent role entries, collapsed
	// by a single deactivation.
	CascadeCerts int
	// CacheMaxEntries bounds the consumer's ECR validation cache
	// (core.Config.CacheMaxEntries; 0 = unbounded).
	CacheMaxEntries int
}

// ChurnResult reports what a capacity run measured.
type ChurnResult struct {
	Principals int

	// Resident-state footprint after the login storm and activation
	// burst settle (heap growth over the harness start, post-GC).
	ResidentBytes     int64
	BytesPerPrincipal float64
	ResidentCRs       int64 // live credential records, issuer + consumer
	CachedValidations int64 // resident ECR cache entries at the consumer
	InternEntries     int64 // canonical intern table population
	InternBytes       int64
	PopulateElapsed   time.Duration

	// Churn-phase validation latency and allocation profile.
	Ops          int
	P50Ns        int64
	P99Ns        int64
	AllocsPerOp  float64
	Authorized   int
	Denied       int
	Revocations  int
	Relogins     int
	ChurnElapsed time.Duration

	// Appointment-expiry waves.
	ApptIssued  int
	ApptExpired int

	// Cascade collapse: one root deactivation collapsing CascadeCerts
	// dependent role entries.
	CascadeCerts      int
	CascadeCollapseNs int64
	CascadeOK         bool

	Violations []string
}

// Churn executes the capacity workload and returns its measurements. Any
// entry in Violations is a bug in the engine or the harness.
func Churn(cfg ChurnConfig) (ChurnResult, error) {
	if cfg.Principals < 1 || cfg.Ops < 1 {
		return ChurnResult{}, fmt.Errorf("churn: principals and ops must be positive")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	broker := event.NewBroker()
	defer broker.Close()
	bus := rpc.NewLoopback()
	clk := clock.NewSimulated(time.Date(2001, 11, 12, 8, 0, 0, 0, time.UTC))

	res := ChurnResult{Principals: cfg.Principals}

	// Heap baseline before any service or principal state exists.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapStart := int64(ms.HeapAlloc)

	login, err := core.NewService(core.Config{
		Name: "login",
		Policy: policy.MustParse(`
login.user <- env ok.
auth appoint_badge <- login.user.
`),
		Broker: broker,
		Caller: bus,
		Clock:  clk,
	})
	if err != nil {
		return ChurnResult{}, err
	}
	defer login.Close()
	login.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	bus.Register("login", login.Handler())

	guard, err := core.NewService(core.Config{
		Name: "guard",
		Policy: policy.MustParse(`
guard.inside <- login.user keep [1].
auth enter <- login.user.
auth enter_badged <- appt login.badge.
`),
		Broker:           broker,
		Caller:           bus,
		Clock:            clk,
		CacheValidations: true,
		CacheMaxEntries:  cfg.CacheMaxEntries,
	})
	if err != nil {
		return ChurnResult{}, err
	}
	defer guard.Close()
	bus.Register("guard", guard.Handler())

	userRole := names.MustRole(names.MustRoleName("login", "user", 0))
	insideRole := names.MustRole(names.MustRoleName("guard", "inside", 0))

	principalID := func(i int) string { return fmt.Sprintf("p%07d", i) }

	// Phase 1 — login storm + role-activation burst. Each principal logs
	// in (one issuer credential record) and enters guard.inside with it
	// (one callback validation that lands in the ECR cache, one consumer
	// credential record). The harness keeps only the two RMCs per
	// principal — what a client holds.
	start := time.Now()
	logins := make([]cert.RMC, cfg.Principals)
	entries := make([]cert.RMC, cfg.Principals)
	enter := func(i int) error {
		rmc, err := login.Activate(principalID(i), userRole, core.Presented{})
		if err != nil {
			return fmt.Errorf("login %d: %w", i, err)
		}
		logins[i] = rmc
		inside, err := guard.Activate(principalID(i), insideRole, core.Presented{RMCs: []cert.RMC{rmc}})
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		entries[i] = inside
		return nil
	}
	for i := 0; i < cfg.Principals; i++ {
		if err := enter(i); err != nil {
			return ChurnResult{}, err
		}
	}
	broker.Quiesce()
	res.PopulateElapsed = time.Since(start)

	runtime.GC()
	runtime.ReadMemStats(&ms)
	res.ResidentBytes = int64(ms.HeapAlloc) - heapStart
	res.BytesPerPrincipal = float64(res.ResidentBytes) / float64(cfg.Principals)
	res.ResidentCRs = login.ResidentCRs() + guard.ResidentCRs()
	res.CachedValidations = guard.CachedValidations()
	res.InternEntries, res.InternBytes = names.InternStats()
	if res.ResidentCRs < int64(2*cfg.Principals) {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"resident CRs %d < 2x principals %d after populate", res.ResidentCRs, cfg.Principals))
	}

	// Phase 2 — churn: skewed validation traffic with revoke/re-login
	// storms riding along. Latencies are measured per op; the allocation
	// profile is the malloc-count delta over the whole phase (revocation
	// churn included — that is what a live system pays).
	hot := int(float64(cfg.Principals) * cfg.HotFrac)
	pick := func() int {
		if hot > 0 && hot < cfg.Principals && rng.Intn(10) != 0 {
			return rng.Intn(hot)
		}
		return rng.Intn(cfg.Principals)
	}
	latencies := make([]int64, cfg.Ops)
	res.Ops = cfg.Ops
	runtime.ReadMemStats(&ms)
	mallocsBefore := ms.Mallocs
	churnStart := time.Now()
	for op := 0; op < cfg.Ops; op++ {
		if cfg.RevokeEvery > 0 && op%cfg.RevokeEvery == cfg.RevokeEvery-1 {
			victim := pick()
			login.Deactivate(logins[victim].Ref.Serial, "logout")
			res.Revocations++
			if err := enter(victim); err != nil {
				return ChurnResult{}, fmt.Errorf("re-login after revocation: %w", err)
			}
			res.Relogins++
		}
		i := pick()
		t0 := time.Now()
		_, err := guard.Invoke(principalID(i), "enter", nil, core.Presented{RMCs: []cert.RMC{logins[i]}})
		latencies[op] = time.Since(t0).Nanoseconds()
		if err == nil {
			res.Authorized++
		} else {
			// A cascade still propagating may deny the op that raced it;
			// anything more than that sliver is a violation.
			res.Denied++
		}
	}
	res.ChurnElapsed = time.Since(churnStart)
	runtime.ReadMemStats(&ms)
	res.AllocsPerOp = float64(ms.Mallocs-mallocsBefore) / float64(cfg.Ops)
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	res.P50Ns = latencies[len(latencies)/2]
	res.P99Ns = latencies[len(latencies)*99/100]
	if res.Denied > res.Revocations {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"%d denials for %d revocations: denials must only come from in-flight cascades",
			res.Denied, res.Revocations))
	}

	// Phase 3 — appointment-expiry waves: certificates that outlive
	// sessions die by clock, not by event. Each wave issues a batch of
	// short-lived badges through the appointer rule, proves they
	// authorize, then advances simulated time past the expiry and proves
	// they stopped.
	appointer := principalID(0)
	appointerCreds := core.Presented{RMCs: []cert.RMC{logins[0]}}
	for wave := 0; wave < cfg.ApptWaves; wave++ {
		batch := make([]cert.AppointmentCertificate, 0, cfg.ApptsPerWave)
		for k := 0; k < cfg.ApptsPerWave; k++ {
			a, err := login.Appoint(appointer, core.AppointmentRequest{
				Kind:      "badge",
				Holder:    principalID(pick()),
				ExpiresAt: clk.Now().Add(time.Hour),
			}, appointerCreds)
			if err != nil {
				return ChurnResult{}, fmt.Errorf("wave %d appoint: %w", wave, err)
			}
			batch = append(batch, a)
			res.ApptIssued++
		}
		probe := batch[rng.Intn(len(batch))]
		if _, err := guard.Invoke(probe.Holder, "enter_badged", nil,
			core.Presented{Appointments: []cert.AppointmentCertificate{probe}}); err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"wave %d: live badge refused: %v", wave, err))
		}
		clk.Advance(2 * time.Hour) // the whole wave expires
		for _, a := range batch {
			if _, err := guard.Invoke(a.Holder, "enter_badged", nil,
				core.Presented{Appointments: []cert.AppointmentCertificate{a}}); err != nil {
				res.ApptExpired++
			} else {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"wave %d: badge %d authorized after expiry", wave, a.Serial))
			}
		}
	}

	// Phase 4 — cascade collapse: one root login credential carrying
	// CascadeCerts dependent role entries at the consumer, collapsed by a
	// single deactivation. This is the paper's active-security promise at
	// capacity scale: revocation cost follows the dependent set.
	if cfg.CascadeCerts > 0 {
		rootID := "cascade_root"
		rootRMC, err := login.Activate(rootID, userRole, core.Presented{})
		if err != nil {
			return ChurnResult{}, err
		}
		rootCreds := core.Presented{RMCs: []cert.RMC{rootRMC}}
		deps := make([]uint64, cfg.CascadeCerts)
		for k := 0; k < cfg.CascadeCerts; k++ {
			rmc, err := guard.Activate(rootID, insideRole, rootCreds)
			if err != nil {
				return ChurnResult{}, fmt.Errorf("cascade entry %d: %w", k, err)
			}
			deps[k] = rmc.Ref.Serial
		}
		res.CascadeCerts = cfg.CascadeCerts
		t0 := time.Now()
		login.Deactivate(rootRMC.Ref.Serial, "cascade")
		broker.Quiesce()
		res.CascadeCollapseNs = time.Since(t0).Nanoseconds()
		res.CascadeOK = true
		for _, serial := range deps {
			if valid, _ := guard.CRStatus(serial); valid {
				res.CascadeOK = false
				res.Violations = append(res.Violations, fmt.Sprintf(
					"cascade left dependent serial %d live", serial))
				break
			}
		}
	}
	return res, nil
}
