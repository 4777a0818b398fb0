package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// valCache is the external credential record proxy (ECR, Fig. 5) rebuilt
// for concurrency: a lock-free read path (sync.Map of per-key entries with
// an atomic validity bit) and a per-key singleflight so N concurrent
// presentations of the same uncached certificate trigger one issuer
// callback, not N.
//
// The revocation race is closed by ordering: the key's revocation channel
// is subscribed *before* the callback validation is issued, and every
// revocation event bumps the entry's generation. A positive result is only
// cached if the generation is unchanged since before the callback, so a
// revocation delivered at any point around the fill can never leave a
// stale positive entry.
// When bounded (Config.CacheMaxEntries), the cache runs a second-chance
// (CLOCK-style) sweep on overflow: every hit sets the entry's recent bit,
// the sweep clears recent bits and evicts entries whose bit was already
// clear, skipping entries with a validation in flight. Eviction cancels
// the entry's revocation subscription and liveness watch — the dominant
// per-entry resident cost — and an evicted credential simply
// re-validates by callback on its next presentation, so boundedness
// trades issuer round-trips for memory, never safety.
type valCache struct {
	entries sync.Map // key string -> *cacheEntry
	// count tracks the entry population (the sync.Map has no O(1) len);
	// max is the configured bound, 0 = unbounded. sweeping serialises
	// eviction sweeps so an insert herd does not scan the map in chorus.
	count    atomic.Int64
	max      int
	sweeping atomic.Bool
}

// cacheEntry is the cache state of one foreign certificate key.
type cacheEntry struct {
	// valid is the lock-free hit path: true means the issuer said valid
	// and no revocation event has arrived since.
	valid atomic.Bool
	// validatedAt is the service-clock instant (unix nanos) of the last
	// verdict confirmed by the issuer; the revalidation deadline and the
	// stale-grace window are measured from it. 0 = never confirmed.
	validatedAt atomic.Int64
	// recent is the second-chance bit: set on every cache hit, cleared
	// by the eviction sweep.
	recent atomic.Bool

	mu      sync.Mutex
	gen     uint64 // bumped by every revocation event for this key
	sub     *event.Subscription
	flight  *flight
	watched bool // a liveness watch is installed for this key
	// dead marks an entry removed from the map by eviction. A presenter
	// that loaded the pointer before removal may still complete its
	// validation through it, but a dead entry never caches a verdict and
	// never (re-)subscribes — the live state belongs to the fresh entry
	// the next presenter creates under the same key.
	dead bool
}

// flight is one in-progress callback validation shared by all concurrent
// presenters of the same key.
type flight struct {
	done chan struct{}
	err  error
}

// entry returns the cache entry for key, creating it if absent; created
// reports whether this call inserted it (the insert point for the
// eviction sweep).
func (c *valCache) entry(key string) (e *cacheEntry, created bool) {
	if v, ok := c.entries.Load(key); ok {
		return v.(*cacheEntry), false
	}
	v, loaded := c.entries.LoadOrStore(key, &cacheEntry{})
	if !loaded {
		c.count.Add(1)
	}
	return v.(*cacheEntry), !loaded
}

// evictCacheEntries brings the bounded cache back under its limit with a
// second-chance sweep, evicting a slack batch (max/16) beyond the
// overflow so sweeps stay infrequent under a steady insert stream. At
// most one sweep runs at a time; racing inserters skip out and leave the
// cache transiently a few entries over its bound.
func (s *Service) evictCacheEntries() {
	c := &s.vcache
	if c.max <= 0 || !c.sweeping.CompareAndSwap(false, true) {
		return
	}
	defer c.sweeping.Store(false)
	need := c.count.Load() - int64(c.max)
	if need <= 0 {
		return
	}
	need += int64(c.max/16) + 1
	c.entries.Range(func(k, v any) bool {
		e := v.(*cacheEntry)
		if e.recent.Swap(false) {
			return true // recently hit: spare this round
		}
		e.mu.Lock()
		if e.flight != nil || e.dead {
			e.mu.Unlock()
			return true
		}
		e.dead = true
		e.gen++
		e.valid.Store(false)
		e.validatedAt.Store(0)
		sub := e.sub
		e.sub = nil
		watched := e.watched
		e.watched = false
		e.mu.Unlock()
		c.entries.Delete(k)
		c.count.Add(-1)
		if sub != nil {
			sub.Cancel()
		}
		if watched && s.hb != nil {
			s.hb.Unwatch(k.(string))
		}
		s.stats.cacheEvictions.Add(1)
		need--
		return need > 0
	})
}

// subscriptions snapshots the live revocation subscriptions (Close sweep).
func (c *valCache) subscriptions() []*event.Subscription {
	var subs []*event.Subscription
	c.entries.Range(func(_, v any) bool {
		e := v.(*cacheEntry)
		e.mu.Lock()
		if e.sub != nil {
			subs = append(subs, e.sub)
			e.sub = nil
		}
		e.valid.Store(false)
		e.mu.Unlock()
		return true
	})
	return subs
}

// credsScratch backs one validateAll call: the credential-set slices are
// pooled so the authorize-and-dispatch hot path does not allocate a
// fresh slice per request. Solutions hold pointers into these slices
// (policy.Match.Role/Appt), so callers release the scratch only after
// the last use of the evaluation's solution — which is always within the
// same request (Solution never outlives Activate/Invoke).
type credsScratch struct {
	roles []policy.HeldRole
	appts []policy.Appointment
}

var credsPool = sync.Pool{New: func() any { return &credsScratch{} }}

func getCredsScratch() *credsScratch { return credsPool.Get().(*credsScratch) }

// release zeroes the live elements (dropping their string and term
// references) and returns the scratch to the pool.
func (sc *credsScratch) release() {
	clear(sc.roles)
	clear(sc.appts)
	sc.roles = sc.roles[:0]
	sc.appts = sc.appts[:0]
	credsPool.Put(sc)
}

// validateAll checks every presented certificate and converts the valid set
// into the evaluator's credential view, built into the caller's pooled
// scratch. Any invalid certificate rejects the whole request — a principal
// presenting forged or revoked credentials is refused outright rather than
// silently narrowed.
func (s *Service) validateAll(principal string, p Presented, sc *credsScratch) (policy.CredentialSet, error) {
	sc.roles = sc.roles[:0]
	sc.appts = sc.appts[:0]
	for _, r := range p.RMCs {
		// One rendering of the CRR serves both the validation cache key
		// and the held role's monitoring key.
		key := r.Ref.String()
		if err := s.validateRMCKeyed(principal, r, key); err != nil {
			return policy.CredentialSet{}, fmt.Errorf("%w: rmc %s: %v", ErrInvalidCredential, r.Ref, err)
		}
		sc.roles = append(sc.roles, policy.HeldRole{Role: r.Role, Key: key})
	}
	for _, a := range p.Appointments {
		if err := s.validateAppointment(a); err != nil {
			return policy.CredentialSet{}, fmt.Errorf("%w: appointment %s: %v", ErrInvalidCredential, a.Key(), err)
		}
		sc.appts = append(sc.appts, policy.Appointment{
			Issuer:    a.Issuer,
			Kind:      a.Kind,
			Params:    a.Params,
			Key:       a.Key(),
			ExpiresAt: a.ExpiresAt,
		})
	}
	return policy.CredentialSet{Roles: sc.roles, Appointments: sc.appts}, nil
}

// validateRMC checks one RMC for the presenting principal: locally when
// this service issued it, otherwise by callback to the issuer (Sect. 4),
// consulting the ECR cache when enabled.
func (s *Service) validateRMC(principal string, r cert.RMC) error {
	return s.validateRMCKeyed(principal, r, "")
}

// validateRMCKeyed is validateRMC with the CRR rendering precomputed by
// the caller ("" renders on demand), so validateAll does not build the
// same key twice per certificate.
func (s *Service) validateRMCKeyed(principal string, r cert.RMC, key string) error {
	if r.Ref.Issuer == s.name {
		s.stats.localValidations.Add(1)
		status := s.records.Status(r.Ref.Serial)
		if !status.Exists {
			return ErrUnknownCR
		}
		if status.Revoked {
			return fmt.Errorf("%w: %s", ErrRevoked, status.Reason)
		}
		if status.Holder != principal {
			return fmt.Errorf("%w: certificate issued to a different principal", ErrInvalidCredential)
		}
		// The record must be the one issued for this role. Holder and
		// signature alone do not say so: a key ring restored without its
		// records (a journal cut short, or keys carried over by hand)
		// re-issues old serials under the same keys, and a revoked RMC
		// carrying a re-issued serial must not borrow the new record's
		// validity. The key renders into a stack buffer, so the check
		// allocates nothing.
		var kb [64]byte
		if string(r.Role.AppendKey(kb[:0])) != status.Subject {
			return fmt.Errorf("%w: certificate names a role its credential record does not", ErrInvalidCredential)
		}
		return r.Verify(s.ring, principal)
	}
	if key == "" {
		key = r.Ref.String()
	}
	return s.validateForeign("cr", key, "cr/", r.Ref.Issuer, rmcItem(r, principal))
}

// validateAppointment checks an appointment certificate locally or by
// callback to its issuer, including expiry at the current instant.
func (s *Service) validateAppointment(a cert.AppointmentCertificate) error {
	// Expiry is a clock fact the certificate itself carries, so check it
	// locally before consulting the record table or the ECR cache: a
	// cached pre-expiry verdict is event-invalidated (revocation), not
	// clock-invalidated, and must not outlive the certificate.
	if !a.ExpiresAt.IsZero() && s.clk.Now().After(a.ExpiresAt) {
		return fmt.Errorf("%w: at %s", cert.ErrExpired, a.ExpiresAt.Format(time.RFC3339))
	}
	if a.Issuer == s.name {
		s.stats.localValidations.Add(1)
		s.apptMu.Lock()
		rec, ok := s.appts[a.Serial]
		var revoked bool
		if ok {
			revoked = rec.revoked
		}
		s.apptMu.Unlock()
		if !ok {
			return ErrUnknownCR
		}
		if revoked {
			return ErrRevoked
		}
		return a.Verify(s.ring, s.clk.Now())
	}
	return s.validateForeign("appt", a.Key(), "appt/", a.Issuer, apptItem(a))
}

// validateForeign performs (or reuses) a callback validation of a
// certificate issued elsewhere. With caching enabled it implements the ECR
// proxy of Fig. 5: the first validation subscribes to the certificate's
// revocation channel so the cached result is dropped the instant the
// issuer invalidates it; concurrent presenters of the same uncached key
// share a single callback. topicPrefix plus key names the certificate's
// revocation channel (TopicCR / TopicAppt); the concatenation is deferred
// to the fill path so cache hits allocate nothing.
func (s *Service) validateForeign(kindTag, key, topicPrefix, issuer string, it validateItem) error {
	if !s.cacheValidations {
		return s.timedCallbackValidate(kindTag, key, issuer, it)
	}
	e, created := s.vcache.entry(key)
	if created {
		s.evictCacheEntries()
	}
	for {
		if s.cacheFresh(e) {
			// Only positive results are cached; revocation events
			// clear the bit, so a hit means "valid as far as the
			// issuer has told us" — and, with RevalidateAfter set,
			// recently enough to trust without re-confirmation.
			s.stats.cacheHits.Add(1)
			if !e.recent.Load() {
				e.recent.Store(true)
			}
			return nil
		}
		e.mu.Lock()
		if s.cacheFresh(e) {
			e.mu.Unlock()
			continue
		}
		if f := e.flight; f != nil {
			// Another presenter is already validating this key: wait
			// for its verdict instead of issuing a duplicate callback.
			e.mu.Unlock()
			<-f.done
			return f.err
		}
		f := &flight{done: make(chan struct{})}
		e.flight = f
		e.mu.Unlock()
		s.stats.cacheMisses.Add(1)

		f.err = s.fillCache(e, topicPrefix+key, kindTag, key, issuer, it)
		e.mu.Lock()
		e.flight = nil
		e.mu.Unlock()
		close(f.done)
		return f.err
	}
}

// cacheFresh reports whether the entry's cached positive verdict may be
// served without re-confirming with the issuer.
func (s *Service) cacheFresh(e *cacheEntry) bool {
	if !e.valid.Load() {
		return false
	}
	if s.revalidateAfter <= 0 {
		return true
	}
	at := e.validatedAt.Load()
	return at != 0 && s.clk.Now().Sub(time.Unix(0, at)) <= s.revalidateAfter
}

// fillCache runs the singleflight leader's validation: subscribe to the
// revocation channel first, then ask the issuer, then publish the positive
// result only if no revocation arrived in between.
//
// When the issuer cannot be reached at all (circuit open, partition,
// timeout — anything rpc.IsUnavailable), a previously-confirmed entry is
// served degraded inside the StaleGrace window instead of denying;
// revocation events (including the heartbeat monitor's synthetic
// revocation on issuer silence) clear the entry and end the grace
// immediately, so availability degrades but safety never does.
func (s *Service) fillCache(e *cacheEntry, topic, kindTag, key, issuer string, it validateItem) error {
	e.mu.Lock()
	// A dead entry (evicted between the presenter loading it and the
	// flight starting) still answers, but never subscribes or caches:
	// its map slot belongs to a fresh entry now.
	if e.sub == nil && !e.dead {
		e.mu.Unlock()
		sub, err := s.broker.Subscribe(topic, func(ev event.Event) {
			if ev.Kind != event.KindRevoked {
				return
			}
			// Drop the cached result rather than caching "revoked":
			// the next presentation re-validates with the
			// authoritative issuer, which also lets heartbeat-driven
			// synthetic revocations fail safe without denying
			// permanently.
			e.mu.Lock()
			e.gen++
			e.valid.Store(false)
			e.validatedAt.Store(0) // ends any stale-grace window too
			watched := e.watched
			e.watched = false
			e.mu.Unlock()
			if watched && s.hb != nil {
				s.hb.Unwatch(key)
			}
			// The invalidation inherits the revocation's cascade
			// provenance, so a trace consumer sees ECR cache drops as
			// part of the collapse they belong to.
			s.obsm.trace(obs.TraceEvent{
				Kind: "validate", Service: s.name, Subject: key,
				Outcome: "invalidated", Corr: ev.Corr, Depth: ev.Depth,
				Detail: ev.Reason,
			})
		})
		e.mu.Lock()
		if err == nil {
			e.sub = sub
		}
		// A closed broker leaves e.sub nil: validation still answers,
		// but the result is not cached (no channel would invalidate it).
	}
	gen := e.gen
	subscribed := e.sub != nil
	e.mu.Unlock()

	start := time.Now()
	err := s.callbackValidate(kindTag, issuer, it)
	s.obsm.callbackNs.ObserveSince(start)
	durNs := time.Since(start).Nanoseconds()
	switch {
	case err == nil:
		if subscribed {
			now := s.clk.Now().UnixNano()
			e.mu.Lock()
			if e.gen == gen {
				e.valid.Store(true)
				e.validatedAt.Store(now)
			}
			e.mu.Unlock()
			s.watchIssuerLiveness(e, kindTag, key, issuer)
		}
		s.obsm.trace(obs.TraceEvent{
			Kind: "validate", Service: s.name, Subject: key,
			Outcome: "ok", Detail: "issuer=" + issuer, DurNs: durNs,
		})
		return nil
	case !rpc.IsUnavailable(err) || errors.Is(err, ErrRevoked):
		// Authoritative answer (the issuer ran and refused, or said
		// revoked): the cached verdict is dead, grace or not.
		e.valid.Store(false)
		e.validatedAt.Store(0)
		s.obsm.trace(obs.TraceEvent{
			Kind: "validate", Service: s.name, Subject: key,
			Outcome: "revoked", Detail: "issuer=" + issuer, DurNs: durNs,
		})
		return err
	default:
		// Issuer unreachable. Fail safe but not fail-closed: a verdict
		// confirmed within the grace window, with no revocation event
		// since, still stands.
		if s.staleGrace > 0 && e.valid.Load() {
			if at := e.validatedAt.Load(); at != 0 &&
				s.clk.Now().Sub(time.Unix(0, at)) <= s.revalidateAfter+s.staleGrace {
				s.stats.degradedHits.Add(1)
				s.obsm.trace(obs.TraceEvent{
					Kind: "validate", Service: s.name, Subject: key,
					Outcome: "degraded", Detail: "issuer unreachable, stale-grace accept", DurNs: durNs,
				})
				return nil
			}
			// Grace exhausted: drop the entry so later presentations
			// fail fast on the cache path as well.
			e.valid.Store(false)
		}
		s.obsm.trace(obs.TraceEvent{
			Kind: "validate", Service: s.name, Subject: key,
			Outcome: "unreachable", Detail: "issuer=" + issuer, DurNs: durNs,
		})
		return err
	}
}

// watchIssuerLiveness registers a freshly confirmed foreign RMC with the
// optional heartbeat monitor, bounding degraded operation by the issuer's
// heartbeat deadline: on silence the monitor publishes a synthetic
// revocation on the certificate's channel, which the subscription above
// turns into an immediate cache drop. Appointment certificates are not
// heartbeated (EmitHeartbeats covers credential records only), so only
// "cr" entries are watched.
func (s *Service) watchIssuerLiveness(e *cacheEntry, kindTag, key, issuer string) {
	if s.hb == nil || kindTag != "cr" {
		return
	}
	e.mu.Lock()
	if e.watched {
		e.mu.Unlock()
		return
	}
	e.watched = true
	e.mu.Unlock()
	if err := s.hb.Watch(key, TopicHeartbeat(issuer), "cr/"+key); err != nil {
		e.mu.Lock()
		e.watched = false
		e.mu.Unlock()
	}
}

// timedCallbackValidate wraps callbackValidate with the callback-latency
// histogram and a validate trace event; it serves the uncached validation
// path (the ECR path instruments fillCache instead, where the outcome
// classification is richer). The instrumentation is negligible against the
// RPC it measures.
func (s *Service) timedCallbackValidate(kindTag, key, issuer string, it validateItem) error {
	start := time.Now()
	err := s.callbackValidate(kindTag, issuer, it)
	s.obsm.callbackNs.ObserveSince(start)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	s.obsm.trace(obs.TraceEvent{
		Kind: "validate", Service: s.name, Subject: key,
		Outcome: outcome, Detail: "issuer=" + issuer,
		DurNs: time.Since(start).Nanoseconds(),
	})
	return err
}

// callbackValidate asks the issuing service to validate one certificate,
// routing through the per-issuer batcher: concurrent validations bound
// for the same issuer coalesce into validate_batch calls (see batch.go),
// while a lone call departs immediately as a single binary-coded call.
func (s *Service) callbackValidate(kindTag, issuer string, it validateItem) error {
	if s.caller == nil {
		return fmt.Errorf("no transport to validate %s certificate from %s", kindTag, issuer)
	}
	return s.batch.do(issuer, it)
}

// Close cancels the service's cache subscriptions and expiry timers
// (credential record watches are cancelled by Deactivate).
func (s *Service) Close() {
	// Drain the mutation sequencer first: Close blocks until every
	// in-flight Submit has applied, after which late mutations (e.g. a
	// revocation racing shutdown) take the inline path.
	if s.seq != nil {
		s.seq.Close()
	}
	s.stopOnce.Do(func() { close(s.stopTimers) })
	s.timersWG.Wait()
	subs := s.vcache.subscriptions()
	for _, cr := range s.crs.allRecords() {
		cr.mu.Lock()
		subs = append(subs, cr.subs...)
		cr.subs = nil
		cr.mu.Unlock()
	}
	for _, sub := range subs {
		sub.Cancel()
	}
}

// validateResponse is one issuer verdict on a callback validation (wire
// form in wirebin.go).
type validateResponse struct {
	Valid  bool
	Reason string
}

// validateItemVerdict runs one validation item and renders the verdict.
func (s *Service) validateItemVerdict(it validateItem) validateResponse {
	var err error
	if it.isAppt {
		err = s.validateAppointment(it.appt)
	} else {
		err = s.validateRMC(it.principal, it.rmc)
	}
	if err != nil {
		return validateResponse{Valid: false, Reason: err.Error()}
	}
	return validateResponse{Valid: true}
}

// Handler exposes the service's remote endpoints over the rpc transport:
// validate_rmc, validate_appt and validate_batch (callback validation),
// activate, invoke, appoint, revoke and end_session (remote role
// activation, invocation and credential management, used for
// cross-domain sessions and the HTTP edge gateway). The validation
// endpoints speak the binary wire bodies of wirebin.go; the others take
// and answer JSON.
func (s *Service) Handler() func(method string, body []byte) ([]byte, error) {
	return func(method string, body []byte) ([]byte, error) {
		if s.readOnly {
			switch method {
			case "activate", "invoke", "appoint", "revoke", "end_session":
				return nil, fmt.Errorf("%s %s: %w", s.name, method, ErrReadOnly)
			}
		}
		switch method {
		case "validate_rmc", "validate_appt":
			it, err := decodeValidateReqBinary(body)
			if err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			return encodeValidateRespBinary(s.validateItemVerdict(it)), nil
		case "validate_batch":
			pooled, _ := batchItemsPool.Get().([]validateItem)
			items, err := decodeValidateBatchReqInto(pooled, body)
			if err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			defer func() {
				clear(items)
				batchItemsPool.Put(items[:0]) //nolint:staticcheck // slice reuse, header copy is fine
			}()
			pr, _ := batchRespsPool.Get().([]validateResponse)
			var resps []validateResponse
			if cap(pr) >= len(items) {
				resps = pr[:len(items)]
			} else {
				resps = make([]validateResponse, len(items))
			}
			defer func() {
				clear(resps)
				batchRespsPool.Put(resps[:0]) //nolint:staticcheck // slice reuse, header copy is fine
			}()
			// Big batches are the whole point of the endpoint: verify
			// chunks across cores so the round trip does not grow
			// linearly with the herd the batch carries.
			const chunk = 16
			if len(items) <= chunk {
				for i, it := range items {
					resps[i] = s.validateItemVerdict(it)
				}
			} else {
				var wg sync.WaitGroup
				for lo := 0; lo < len(items); lo += chunk {
					hi := min(lo+chunk, len(items))
					wg.Add(1)
					go func(lo, hi int) {
						defer wg.Done()
						for i := lo; i < hi; i++ {
							resps[i] = s.validateItemVerdict(items[i])
						}
					}(lo, hi)
				}
				wg.Wait()
			}
			return encodeValidateBatchResp(resps), nil
		case "activate":
			var req RemoteActivateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			rmc, err := s.Activate(req.Principal, req.Role, req.Presented())
			if err != nil {
				return nil, err
			}
			return json.Marshal(rmc)
		case "invoke":
			var req RemoteInvokeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			return s.Invoke(req.Principal, req.Method, req.Args, req.Presented())
		case "end_session":
			var req struct {
				Principal string `json:"principal"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			n := s.EndSession(req.Principal)
			return json.Marshal(map[string]int{"deactivated": n})
		case "revoke":
			var req RemoteRevokeRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			return json.Marshal(RemoteRevokeResponse{Revoked: s.Revoke(req.Serial, req.Reason)})
		case "appoint":
			var req RemoteAppointRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("decode: %w", err)
			}
			a, err := s.Appoint(req.Principal, AppointmentRequest{
				Kind:      req.Kind,
				Holder:    req.Holder,
				Params:    req.Params,
				ExpiresAt: req.ExpiresAt,
			}, req.Presented())
			if err != nil {
				return nil, err
			}
			return cert.MarshalAppointment(a)
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	}
}
