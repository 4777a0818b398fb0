package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/clock"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/seq"
	"repro/internal/sign"
	"repro/internal/store"
)

// MethodImpl is the application logic behind an access-controlled method.
// It runs only after an authorization rule has admitted the call.
type MethodImpl func(args []names.Term) ([]byte, error)

// InvokeObserver is notified of every successful invocation; the audit
// layer (Sect. 6) attaches here.
type InvokeObserver func(rec InvokeRecord)

// InvokeRecord describes one successful, authorized invocation.
type InvokeRecord struct {
	Service   string
	Method    string
	Args      []names.Term
	Principal string
	// Credentials lists the keys of the credentials that satisfied the
	// authorization rule, e.g. the treating_doctor RMC recorded for
	// audit in the Fig. 3 scenario.
	Credentials []string
}

// Config configures a Service.
type Config struct {
	// Name is the service name; it must match the Service component of
	// every role the policy defines.
	Name string
	// Policy holds the service's activation and authorization rules.
	Policy policy.Policy
	// Broker is the shared active-middleware event broker.
	Broker *event.Broker
	// Caller issues callback validations to other services; nil is
	// permitted for services that never receive foreign certificates.
	Caller rpc.Caller
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Env is the environmental predicate registry; a fresh registry
	// with the comparison builtins is created when nil.
	Env *policy.Registry
	// KeyRetention is how many historical signing secrets remain valid
	// (minimum 1).
	KeyRetention int
	// CacheValidations enables the external credential record proxy
	// (ECR, Fig. 5): results of callback validation are cached and
	// invalidated by revocation events instead of re-validated per use.
	CacheValidations bool
	// CacheMaxEntries bounds the ECR validation cache. 0 (the default)
	// leaves it unbounded — the classic ECR behaviour, fine when the
	// foreign-credential population is small. At million-principal scale
	// every cached verdict also pins a broker subscription, so a bound
	// with second-chance eviction (see valCache) keeps the resident cost
	// proportional to the hot working set rather than to every
	// credential ever presented. Evictions are counted in Stats and
	// exposed on /metrics; an evicted credential simply re-validates by
	// callback on next presentation.
	CacheMaxEntries int
	// BatchWindow bounds how long a callback validation queued behind an
	// outstanding flight to the same issuer waits for companions before
	// departing as a validate_batch call (see batch.go; a validation
	// with no flight outstanding always departs immediately). 0 selects
	// the ~1ms default; negative disables coalescing entirely.
	BatchWindow time.Duration
	// RevalidateAfter bounds how long a cached positive validation is
	// trusted without re-confirming with the issuer (0 = event-driven
	// invalidation only, the classic ECR behaviour). Setting it enables
	// the degraded-operation path below.
	RevalidateAfter time.Duration
	// StaleGrace is the bounded degraded-operation window: when
	// re-confirmation fails because the issuer is unreachable (circuit
	// open, partition, timeout), a previously-confirmed certificate
	// keeps validating for at most this long past RevalidateAfter.
	// Authoritative "revoked" answers and revocation events — including
	// the HeartbeatMonitor's synthetic revocation on issuer silence —
	// deny immediately regardless of the window. 0 disables the grace:
	// any re-confirmation failure denies (fully fail-closed).
	StaleGrace time.Duration
	// Heartbeats, when set, liveness-watches every foreign RMC that
	// enters the validation cache: if the issuer's heartbeats stop, the
	// monitor's synthetic revocation clears the cached verdict and
	// collapses dependent roles, bounding the stale-grace window by the
	// heartbeat deadline (Fig. 5 fail-safe stance).
	Heartbeats *event.HeartbeatMonitor
	// Journal, when set, receives every credential-record and
	// appointment issue/revoke so durable state (internal/durable) can
	// replay them after a crash. Nil disables journaling.
	Journal Journal
	// KeyRing, when set, is the signing key ring to use — a ring
	// restored from the journal, so certificates issued before a crash
	// still verify. Nil generates a fresh ring.
	KeyRing *sign.KeyRing
	// ReadOnly makes the wire handler refuse the mutating methods
	// (activate, invoke, appoint, revoke, end_session) with ErrReadOnly.
	// A follower replica (internal/replica) serves validation locally
	// from replicated state but must never mint or revoke credentials
	// itself — those belong to the leader, which the replica proxies to
	// under its lease. Validation methods are unaffected, and the
	// replication applier still mutates through the Restore*/Revoke APIs
	// directly (they are not wire methods).
	ReadOnly bool
	// Obs, when set, registers the service's counters and latency
	// histograms (activation, callback validation, revocation cascade)
	// with the observability registry under a service label.
	Obs *obs.Registry
	// Trace, when set, records activation, validation, denial and
	// revocation-cascade trace events. Both may be nil independently;
	// nil disables that half of the instrumentation at one-branch cost.
	Trace *obs.Tracer
}

// Stats is a snapshot of the service counters for the experiment harness.
type Stats struct {
	Activations         uint64
	ActivationsDenied   uint64
	Invocations         uint64
	InvocationsDenied   uint64
	LocalValidations    uint64
	CallbackValidations uint64
	CacheHits           uint64
	// CacheMisses counts foreign validations that found no fresh cached
	// verdict and went to the issuer (first presentation, staleness, or
	// re-presentation after eviction).
	CacheMisses uint64
	// CacheEvictions counts cached verdicts discarded by the
	// CacheMaxEntries bound's second-chance sweep.
	CacheEvictions uint64
	// DegradedHits counts validations answered from a stale cache entry
	// inside the StaleGrace window while the issuer was unreachable.
	DegradedHits uint64
	Revocations  uint64
	// BatchesSent counts validate_batch wire calls issued; each carried
	// two or more coalesced validations.
	BatchesSent uint64
	// BatchedValidations counts callback validations answered via a
	// validate_batch call (CallbackValidations includes them too).
	BatchedValidations uint64
}

// statCounters is the live form of Stats: independent atomics so the
// authorize-and-dispatch path never takes a lock to count.
type statCounters struct {
	activations         atomic.Uint64
	activationsDenied   atomic.Uint64
	invocations         atomic.Uint64
	invocationsDenied   atomic.Uint64
	localValidations    atomic.Uint64
	callbackValidations atomic.Uint64
	cacheHits           atomic.Uint64
	cacheMisses         atomic.Uint64
	cacheEvictions      atomic.Uint64
	degradedHits        atomic.Uint64
	revocations         atomic.Uint64
	batchesSent         atomic.Uint64
	batchedValidations  atomic.Uint64
}

func (c *statCounters) snapshot() Stats {
	return Stats{
		Activations:         c.activations.Load(),
		ActivationsDenied:   c.activationsDenied.Load(),
		Invocations:         c.invocations.Load(),
		InvocationsDenied:   c.invocationsDenied.Load(),
		LocalValidations:    c.localValidations.Load(),
		CallbackValidations: c.callbackValidations.Load(),
		CacheHits:           c.cacheHits.Load(),
		CacheMisses:         c.cacheMisses.Load(),
		CacheEvictions:      c.cacheEvictions.Load(),
		DegradedHits:        c.degradedHits.Load(),
		Revocations:         c.revocations.Load(),
		BatchesSent:         c.batchesSent.Load(),
		BatchedValidations:  c.batchedValidations.Load(),
	}
}

// Service is an OASIS-secured service (Fig. 2). It defines roles, enforces
// activation and authorization policy, issues and validates certificates,
// and monitors membership rules through the event infrastructure.
//
// Concurrency: there is no service-wide lock. State is split per concern —
// the sharded credential-record table (crs), the lock-free validation
// cache (vcache), copy-on-write registration maps (methods, observers),
// atomic counters (stats), and small dedicated mutexes for the cold maps
// (appointments, env index) — so concurrent invocations on the hot path
// synchronise only through atomics. See DESIGN.md "Concurrency model".
type Service struct {
	name string
	pol  policy.Policy
	// authIndex and roleIndex are immutable per-method / per-role views
	// of the policy, precomputed so the hot paths do not rescan (and
	// reallocate) the rule lists on every request.
	authIndex map[string][]policy.AuthRule
	roleIndex map[names.RoleName][]policy.Rule
	broker    *event.Broker
	caller    rpc.Caller
	clk       clock.Clock
	eval      *policy.Evaluator
	ring      *sign.KeyRing
	chal      *sign.Challenger

	cacheValidations bool
	revalidateAfter  time.Duration
	staleGrace       time.Duration
	readOnly         bool
	hb               *event.HeartbeatMonitor

	records *memRecords
	journal Journal

	crs    crTable
	vcache valCache
	stats  statCounters
	obsm   serviceObs
	batch  *batcher

	// seq is the per-shard mutation sequencer (nil when disabled):
	// every issue/revoke/appoint/key-install flows through one ordered
	// apply loop per shard. seqScratch is the apply loops' per-shard
	// reusable buffers.
	seq        *seq.Sequencer[*mutOp]
	seqScratch [crShards]seqShardScratch

	// setupMu serialises writers of the copy-on-write registration
	// snapshots below; readers load them without locking.
	setupMu   sync.Mutex
	methods   atomic.Value // map[string]MethodImpl
	observers atomic.Value // []InvokeObserver

	envMu    sync.Mutex
	envIndex map[string]map[uint64]struct{} // predicate -> CR serials with env deps

	apptMu         sync.Mutex
	nextApptSerial uint64
	appts          map[uint64]*apptRecord

	// restoredMu guards restoredCRs: live credential records re-created
	// from the journal, indexed by holder. Restored records have no crs
	// entry (the session died with the crash), so EndSession consults
	// this index to keep logout able to revoke pre-crash certificates.
	restoredMu  sync.Mutex
	restoredCRs map[string][]uint64

	proofState *sessionProofs

	stopTimers chan struct{}
	stopOnce   sync.Once
	timersWG   sync.WaitGroup
}

// CredRecord is the service-local monitoring state of one issued RMC (the
// CR of Figs. 1, 2 and 5): the membership dependencies whose failure must
// deactivate the role. Validity itself lives in the service's record
// table (memRecords).
type CredRecord struct {
	Serial    uint64
	Principal string
	Role      names.Role

	// mu guards the mutable monitoring state below; deactivated marks
	// the record dead so a membership watch installed concurrently with
	// deactivation is cancelled rather than leaked.
	mu          sync.Mutex
	deactivated bool
	subs        []*event.Subscription
	envDeps     []envDep
}

type envDep struct {
	name    string
	args    []names.Term
	negated bool
}

type apptRecord struct {
	serial  uint64
	appt    cert.AppointmentCertificate
	revoked bool
}

// NewService constructs a service from its configuration.
func NewService(cfg Config) (*Service, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("service name required")
	}
	if cfg.Broker == nil {
		return nil, fmt.Errorf("service %s: broker required", cfg.Name)
	}
	for _, r := range cfg.Policy.Rules {
		if r.Head.Name.Service != cfg.Name {
			return nil, fmt.Errorf("service %s: policy defines role %s owned by another service",
				cfg.Name, r.Head.Name)
		}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	env := cfg.Env
	if env == nil {
		env = policy.NewRegistry()
	}
	retain := cfg.KeyRetention
	if retain < 1 {
		retain = 1
	}
	ring := cfg.KeyRing
	if ring == nil {
		var err error
		ring, err = sign.NewKeyRing(retain, nil)
		if err != nil {
			return nil, fmt.Errorf("service %s: %w", cfg.Name, err)
		}
	}
	authIndex := make(map[string][]policy.AuthRule)
	for _, r := range cfg.Policy.Auth {
		authIndex[r.Method] = append(authIndex[r.Method], r)
	}
	roleIndex := make(map[names.RoleName][]policy.Rule)
	for _, r := range cfg.Policy.Rules {
		roleIndex[r.Head.Name] = append(roleIndex[r.Head.Name], r)
	}
	s := &Service{
		name:             cfg.Name,
		records:          newMemRecords(),
		journal:          cfg.Journal,
		pol:              cfg.Policy,
		authIndex:        authIndex,
		roleIndex:        roleIndex,
		broker:           cfg.Broker,
		caller:           cfg.Caller,
		clk:              clk,
		eval:             policy.NewEvaluator(env),
		ring:             ring,
		chal:             sign.NewChallenger(time.Minute, clk.Now, nil),
		cacheValidations: cfg.CacheValidations,
		revalidateAfter:  cfg.RevalidateAfter,
		staleGrace:       cfg.StaleGrace,
		readOnly:         cfg.ReadOnly,
		hb:               cfg.Heartbeats,
		envIndex:         make(map[string]map[uint64]struct{}),
		appts:            make(map[uint64]*apptRecord),
		proofState:       newSessionProofs(),
		stopTimers:       make(chan struct{}),
	}
	s.vcache.max = cfg.CacheMaxEntries
	s.methods.Store(map[string]MethodImpl{})
	s.observers.Store([]InvokeObserver{})
	s.obsm = newServiceObs(s, cfg.Name, cfg.Obs, cfg.Trace)
	s.batch = newBatcher(s, cfg.BatchWindow)
	// The mutation sequencer (seqmut.go), at the default mailbox depth:
	// a full mailbox blocks the submitting mutation, so a slow journal or
	// broker pushes back on the RPC layer instead of growing a queue.
	// ReadOnly replicas never mutate through the public API (the
	// replication applier calls ApplyReplicated directly, already
	// serialised by the stream), so they skip it.
	if !cfg.ReadOnly {
		s.seq = seq.New(seq.Config[*mutOp]{
			Shards: crShards,
			Apply:  s.applySeqBatch,
			Name:   cfg.Name,
			Obs:    cfg.Obs,
		})
	}
	return s, nil
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// Env exposes the environmental predicate registry for registration of
// service-specific predicates.
func (s *Service) Env() *policy.Registry { return s.eval.Env }

// Challenger exposes the ISO/9798 challenge-response endpoint (Sect. 4.1).
func (s *Service) Challenger() *sign.Challenger { return s.chal }

// Bind installs application logic for a method; invocation remains policy
// gated. The method table is copied on write so Invoke reads it without a
// lock.
func (s *Service) Bind(method string, impl MethodImpl) {
	s.setupMu.Lock()
	defer s.setupMu.Unlock()
	old := s.methods.Load().(map[string]MethodImpl)
	next := make(map[string]MethodImpl, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[method] = impl
	s.methods.Store(next)
}

// Observe registers an invocation observer (audit hook).
func (s *Service) Observe(o InvokeObserver) {
	s.setupMu.Lock()
	defer s.setupMu.Unlock()
	old := s.observers.Load().([]InvokeObserver)
	next := make([]InvokeObserver, len(old), len(old)+1)
	copy(next, old)
	s.observers.Store(append(next, o))
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats { return s.stats.snapshot() }

// ResidentCRs reports the live credential-record population (the
// service's resident principal-state footprint, one record per active
// role instance).
func (s *Service) ResidentCRs() int64 { return s.crs.residents() }

// CachedValidations reports the ECR validation cache's entry population.
func (s *Service) CachedValidations() int64 { return s.vcache.count.Load() }

// Policy returns the service's policy document.
func (s *Service) Policy() policy.Policy { return s.pol }

// Activate is path 1-2 of Fig. 2: the principal presents credentials to
// activate the requested role; on success a signed RMC is returned.
func (s *Service) Activate(principal string, requested names.Role, p Presented) (cert.RMC, error) {
	start := time.Now()
	if requested.Name.Service != s.name {
		return cert.RMC{}, wrap(s.name, fmt.Errorf("%w: %s", ErrUnknownRole, requested.Name))
	}
	rules := s.roleIndex[requested.Name]
	if len(rules) == 0 {
		return cert.RMC{}, wrap(s.name, fmt.Errorf("%w: %s", ErrUnknownRole, requested.Name))
	}
	sc := getCredsScratch()
	defer sc.release()
	creds, err := s.validateAll(principal, p, sc)
	if err != nil {
		return cert.RMC{}, wrap(s.name, err)
	}
	idx, sol, ok, err := s.eval.ActivateAny(rules, requested, creds)
	if err != nil {
		return cert.RMC{}, wrap(s.name, err)
	}
	if !ok {
		s.stats.activationsDenied.Add(1)
		s.obsm.trace(obs.TraceEvent{
			Kind: "activate", Service: s.name, Subject: principal,
			Outcome: "denied", Detail: requested.Name.String(),
		})
		return cert.RMC{}, wrap(s.name, fmt.Errorf("%w: %s", ErrActivationDenied, requested.Name))
	}
	rule := rules[idx]
	// Intern the ground role before it becomes resident state: the role
	// name and parameter vocabulary is tiny relative to the principal
	// population, so every credential record spelling the same hospital,
	// ward or role shares one canonical copy instead of retaining the
	// request's wire-decoded strings.
	ground := rule.Head.Apply(sol.Subst).Intern()
	if !ground.IsGround() {
		return cert.RMC{}, wrap(s.name, fmt.Errorf("%w: %s left unbound parameters", ErrActivationDenied, ground))
	}

	subject := ground.Key()
	// Allocate the serial up front (it is signed into the RMC and
	// names the journal record), then submit the issue to the shard's
	// sequencer: the record, credential-table insert and journal append
	// all happen inside the ordered apply loop.
	serial := s.records.NextSerial()
	op := newMutOp(mutCRIssue)
	op.serial, op.subject, op.holder = serial, subject, principal
	cr := &CredRecord{Serial: serial, Principal: principal, Role: ground}
	op.cr = cr
	s.runMut(op)
	if op.err != nil && !op.did {
		return cert.RMC{}, wrap(s.name, op.err)
	}

	ref := cert.CRR{Issuer: s.name, Serial: serial}
	rmc, err := cert.IssueRMC(s.ring, principal, ground, ref)
	if err != nil {
		s.deactivate(serial, "activation aborted")
		return cert.RMC{}, wrap(s.name, err)
	}
	if err := s.installMembership(cr, rule, sol); err != nil {
		s.deactivate(serial, "activation aborted")
		return cert.RMC{}, wrap(s.name, err)
	}
	s.obsm.activateNs.ObserveSince(start)
	s.obsm.trace(obs.TraceEvent{
		Kind: "activate", Service: s.name, Subject: principal,
		Outcome: "ok", Corr: ref.String(), Detail: ground.String(),
		DurNs: time.Since(start).Nanoseconds(),
	})
	return rmc, nil
}

// installMembership wires the membership rule of an activation: for every
// condition listed in the rule's membership set, the engine arranges to be
// notified when the underlying credential or environmental fact becomes
// invalid, deactivating the role immediately (Sect. 4, Fig. 5).
func (s *Service) installMembership(cr *CredRecord, rule policy.Rule, sol policy.Solution) error {
	for _, m := range rule.Membership {
		match := sol.Matches[m-1]
		switch {
		case match.Role != nil:
			if err := s.watchTopic(cr, "cr/"+match.Role.Key); err != nil {
				return err
			}
		case match.Appt != nil:
			if err := s.watchTopic(cr, TopicAppt(match.Appt.Key)); err != nil {
				return err
			}
			// Active expiry: when the appointment carries an expiry,
			// the dependent role deactivates at that instant rather
			// than surviving until the next validation.
			if !match.Appt.ExpiresAt.IsZero() {
				s.scheduleExpiry(cr.Serial, match.Appt.ExpiresAt, match.Appt.Key)
			}
		case match.EnvName != "":
			ec, _ := match.Cond.(policy.EnvCond)
			dep := envDep{name: match.EnvName, args: match.EnvArgs, negated: ec.Negated}
			cr.mu.Lock()
			if cr.deactivated {
				cr.mu.Unlock()
				continue
			}
			cr.envDeps = append(cr.envDeps, dep)
			cr.mu.Unlock()

			s.envIndexAdd(dep.name, cr.Serial)
			// The record may have been deactivated between the append
			// and the index insert; undo the insert so dead serials do
			// not accumulate in the index.
			cr.mu.Lock()
			dead := cr.deactivated
			cr.mu.Unlock()
			if dead {
				s.envIndexRemove([]envDep{dep}, cr.Serial)
			}
		}
	}
	return nil
}

func (s *Service) envIndexAdd(predicate string, serial uint64) {
	s.envMu.Lock()
	set, ok := s.envIndex[predicate]
	if !ok {
		set = make(map[uint64]struct{})
		s.envIndex[predicate] = set
	}
	set[serial] = struct{}{}
	s.envMu.Unlock()
}

func (s *Service) envIndexRemove(deps []envDep, serial uint64) {
	if len(deps) == 0 {
		return
	}
	s.envMu.Lock()
	for _, dep := range deps {
		if set, ok := s.envIndex[dep.name]; ok {
			delete(set, serial)
			if len(set) == 0 {
				delete(s.envIndex, dep.name)
			}
		}
	}
	s.envMu.Unlock()
}

// scheduleExpiry deactivates a credential record when the clock reaches
// the expiry of an appointment its membership rule depends on. The timer
// goroutine is bounded by the service lifetime (Close).
func (s *Service) scheduleExpiry(serial uint64, at time.Time, apptKey string) {
	// Register the timer synchronously so that a simulated clock
	// advanced immediately after activation still fires it. When the
	// clock supports cancellation the waiter is deregistered on Close,
	// so a stopped service does not leave far-future expiry waiters
	// accumulating in a long-lived simulated clock.
	var fire <-chan time.Time
	cancel := func() {}
	if c, ok := s.clk.(clock.Canceling); ok {
		fire, cancel = c.AfterCancel(at.Sub(s.clk.Now()))
	} else {
		fire = s.clk.After(at.Sub(s.clk.Now()))
	}
	s.timersWG.Add(1)
	go func() {
		defer s.timersWG.Done()
		select {
		case <-fire:
			s.Deactivate(serial, "appointment expired: "+apptKey)
		case <-s.stopTimers:
			cancel()
		}
	}()
}

func (s *Service) watchTopic(cr *CredRecord, topic string) error {
	serial := cr.Serial
	sub, err := s.broker.Subscribe(topic, func(ev event.Event) {
		if ev.Kind == event.KindRevoked {
			// Propagate the cascade provenance: the dependent revocation
			// inherits the root's correlation id one hop deeper.
			s.deactivateCascade(serial, "dependency revoked: "+ev.Subject, ev)
		}
	})
	if err != nil {
		return err
	}
	cr.mu.Lock()
	if cr.deactivated {
		cr.mu.Unlock()
		sub.Cancel()
		return nil
	}
	cr.subs = append(cr.subs, sub)
	cr.mu.Unlock()
	return nil
}

// Deactivate invalidates a credential record and publishes the revocation
// on its event channel, collapsing the dependent role subtree. It is
// idempotent.
func (s *Service) Deactivate(serial uint64, reason string) {
	s.deactivate(serial, reason)
}

// Revoke is Deactivate with an acknowledgement: it reports whether this
// call performed the revocation (false when the serial is unknown or the
// record was already revoked). Remote revocation — the gateway's
// /revoke endpoint and the "revoke" wire method — needs the distinction
// to answer idempotent retries honestly.
func (s *Service) Revoke(serial uint64, reason string) bool {
	return s.deactivate(serial, reason)
}

// deactivate revokes a record as a cascade root (no triggering event).
func (s *Service) deactivate(serial uint64, reason string) bool {
	return s.deactivateCascade(serial, reason, event.Event{})
}

// deactivateCascade reports whether this call performed the revocation:
// the record table's revoke-once semantics make concurrent deactivations of
// the same serial (logout racing revocation) resolve to exactly one
// winner. via is the revocation event that triggered this deactivation
// (zero for cascade roots); its correlation id and depth are propagated on
// the published revocation so trace consumers can reconstruct the whole
// collapse, and the hop latency (via.At to now) lands in the cascade
// histogram.
func (s *Service) deactivateCascade(serial uint64, reason string, via event.Event) bool {
	op := newMutOp(mutCRRevoke)
	op.serial, op.reason, op.via = serial, reason, via
	s.runMut(op)
	return op.did
}

// NotifyEnvChanged re-checks the membership conditions of every active
// role whose membership rule references the named predicate, deactivating
// roles whose conditions no longer hold. Services call this when
// environmental state changes; WatchStore wires it to a fact store
// automatically.
func (s *Service) NotifyEnvChanged(predicate string) {
	s.envMu.Lock()
	set := s.envIndex[predicate]
	serials := make([]uint64, 0, len(set))
	for serial := range set {
		serials = append(serials, serial)
	}
	s.envMu.Unlock()

	for _, serial := range serials {
		cr := s.crs.get(serial)
		if cr == nil {
			continue
		}
		cr.mu.Lock()
		deps := append([]envDep(nil), cr.envDeps...)
		cr.mu.Unlock()
		for _, dep := range deps {
			if dep.name != predicate {
				continue
			}
			if !s.envHolds(dep) {
				s.Deactivate(serial, fmt.Sprintf("membership condition failed: %senv %s",
					negPrefix(dep.negated), dep.name))
				break
			}
		}
	}
}

func negPrefix(negated bool) string {
	if negated {
		return "!"
	}
	return ""
}

// envHolds re-evaluates a ground environmental membership condition.
func (s *Service) envHolds(dep envDep) bool {
	pred, ok := s.eval.Env.Lookup(dep.name)
	if !ok {
		return false // predicate disappeared: fail safe
	}
	sols := pred(dep.args, names.NewSubstitution())
	if dep.negated {
		return len(sols) == 0
	}
	return len(sols) > 0
}

// WatchStore connects a fact store to membership monitoring: whenever a
// relation in the map changes, the corresponding predicate's membership
// conditions are re-checked. relationToPredicate maps store relation names
// to the predicate names used in policy.
func (s *Service) WatchStore(db *store.Store, relationToPredicate map[string]string) {
	mapping := make(map[string]string, len(relationToPredicate))
	for rel, pred := range relationToPredicate {
		mapping[rel] = pred
	}
	db.Observe(func(relation string, tuple []names.Term, added bool) {
		if pred, ok := mapping[relation]; ok {
			s.NotifyEnvChanged(pred)
			s.broker.Publish(event.Event{ //nolint:errcheck
				Topic:   TopicEnv(s.name, pred),
				Kind:    event.KindChanged,
				Subject: pred,
				At:      s.clk.Now(),
			})
		}
	})
}

// Invoke is path 3-4 of Fig. 2: the principal presents credentials with a
// method invocation; the service checks its authorization rules and any
// environmental constraints, then runs the bound implementation. The
// authorize-and-dispatch path takes no lock: validation reads the
// lock-free cache, counters are atomics, and the method/observer tables
// are copy-on-write snapshots.
func (s *Service) Invoke(principal, method string, args []names.Term, p Presented) ([]byte, error) {
	rules := s.authIndex[method]
	if len(rules) == 0 {
		return nil, wrap(s.name, fmt.Errorf("%w: %s", ErrUnknownMethod, method))
	}
	if err := s.proofFreshEnough(principal, method); err != nil {
		return nil, wrap(s.name, err)
	}
	sc := getCredsScratch()
	defer sc.release()
	creds, err := s.validateAll(principal, p, sc)
	if err != nil {
		return nil, wrap(s.name, err)
	}
	for _, rule := range rules {
		sol, ok, err := s.eval.Authorize(rule, args, creds)
		if err != nil {
			return nil, wrap(s.name, err)
		}
		if !ok {
			continue
		}
		s.stats.invocations.Add(1)
		impl := s.methods.Load().(map[string]MethodImpl)[method]
		if observers := s.observers.Load().([]InvokeObserver); len(observers) > 0 {
			rec := InvokeRecord{
				Service:     s.name,
				Method:      method,
				Args:        args,
				Principal:   principal,
				Credentials: credentialKeys(sol),
			}
			for _, o := range observers {
				o(rec)
			}
		}
		if impl == nil {
			return nil, nil
		}
		return impl(args)
	}
	s.stats.invocationsDenied.Add(1)
	s.obsm.trace(obs.TraceEvent{
		Kind: "invoke", Service: s.name, Subject: principal,
		Outcome: "denied", Detail: method,
	})
	return nil, wrap(s.name, fmt.Errorf("%w: %s", ErrInvocationDenied, method))
}

func credentialKeys(sol policy.Solution) []string {
	var keys []string
	for _, m := range sol.Matches {
		switch {
		case m.Role != nil:
			keys = append(keys, m.Role.Key)
		case m.Appt != nil:
			keys = append(keys, m.Appt.Key)
		}
	}
	return keys
}

// EndSession deactivates every live credential record issued to the
// principal by this service (the logout of Sect. 4: deactivating the
// initial roles collapses the whole session tree through the event
// channels). It returns the number of records this call deactivated;
// records concurrently revoked by another path (logout racing revocation)
// are counted exactly once across all callers.
func (s *Service) EndSession(principal string) int {
	n := 0
	for _, serial := range s.crs.serialsOf(principal) {
		if s.deactivate(serial, "session ended") {
			n++
		}
	}
	// Journal-restored records have no crs entry but must still honour a
	// logout: drain the holder's restored serials (revoke-once makes a
	// race with a direct Deactivate resolve to one winner).
	s.restoredMu.Lock()
	restored := s.restoredCRs[principal]
	delete(s.restoredCRs, principal)
	s.restoredMu.Unlock()
	for _, serial := range restored {
		if s.deactivate(serial, "session ended") {
			n++
		}
	}
	return n
}

// ActiveRoles lists the ground roles currently active (non-revoked CRs)
// for a principal, in serial order.
func (s *Service) ActiveRoles(principal string) []names.Role {
	serials := s.crs.serialsOf(principal)
	sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
	var out []names.Role
	for _, serial := range serials {
		cr := s.crs.get(serial)
		if cr == nil {
			continue
		}
		if status := s.records.Status(serial); status.Exists && !status.Revoked {
			out = append(out, cr.Role)
		}
	}
	return out
}

// CRStatus reports whether a credential record exists and is valid.
func (s *Service) CRStatus(serial uint64) (valid, exists bool) {
	status := s.records.Status(serial)
	if !status.Exists {
		return false, false
	}
	return !status.Revoked, true
}
