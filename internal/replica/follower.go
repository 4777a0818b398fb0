package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sign"
	"repro/internal/store"
)

// Errors a follower's wire handler fails closed with.
var (
	// ErrStale is wrapped into read refusals once the leader has been
	// silent past the staleness bound: a verdict served from state that
	// old could miss a revocation, so the replica stops answering.
	ErrStale = errors.New("replica reads stale past bound (failing closed)")
	// ErrNoLease is wrapped into write refusals when the follower holds
	// no live lease from the leader.
	ErrNoLease = errors.New("leader lease expired (failing closed)")
)

// FollowerConfig configures a follower daemon.
type FollowerConfig struct {
	// Leader is the leader's wire address (host:port). Required.
	Leader string
	// Broker is the follower's local event broker: replicated
	// revocations are published on it so locally-attached edge caches
	// and monitors stay safe. Required.
	Broker *event.Broker
	// Store, when set, receives replicated fact mutations so the
	// follower's environmental predicates answer like the leader's.
	Store *store.Store
	// Caller routes wire calls to the leader (write proxying, lease
	// renewal, and the replicated services' own foreign-credential
	// callbacks). Required; it must resolve Service and every
	// replicated service name to the leader.
	Caller rpc.Caller
	// Register is invoked once per replicated service as it first
	// materialises, with the wrapped handler that serves validation
	// locally and proxies writes. It must not call back into the
	// Follower. Nil is allowed (tests drive Handler directly).
	Register func(name string, h rpc.Handler)
	// StaleAfter bounds how long after the last leader contact
	// validation reads keep being served. Default 10s.
	StaleAfter time.Duration
	// DialTimeout is the per-connection dial budget. Default 2s.
	DialTimeout time.Duration
	// ECRCacheMax bounds each replicated service's validation cache.
	ECRCacheMax int
	// Obs receives the follower metrics; nil disables them.
	Obs *obs.Registry
	// BaseBackoff/MaxBackoff bound the reconnect loop; tests shrink
	// them. Defaults 100ms / 5s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// Follower mirrors a leader's journal into live read-only services. It
// maintains one subscribe_journal stream (reconnecting with backoff and
// resuming from its cursor), applies shipped records both to a mirrored
// durable.State and to the live services, renews the write-proxy lease,
// and serves the replicated services' wire methods: validation locally,
// everything mutating proxied to the leader.
type Follower struct {
	cfg FollowerConfig

	lastContact atomic.Int64 // unix nanos of last stream message; 0 = never
	leaseUntil  atomic.Int64 // unix nanos the lease is valid until
	connected   atomic.Bool
	started     time.Time

	applied      *obs.Counter
	snapshots    *obs.Counter
	applyErrs    *obs.Counter
	readsDenied  *obs.Counter
	writesDenied *obs.Counter
	writesProxy  *obs.Counter
	connects     *obs.Counter
	disconnects  *obs.Counter

	mu         sync.Mutex
	state      *durable.State
	cursor     durable.Cursor
	svcs       map[string]*core.Service
	handlers   map[string]rpc.Handler
	registered map[string]bool

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewFollower builds (without starting) a follower of cfg.Leader.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == "" {
		return nil, fmt.Errorf("replica: follower needs a leader address")
	}
	if cfg.Broker == nil {
		return nil, fmt.Errorf("replica: follower needs a broker")
	}
	if cfg.Caller == nil {
		return nil, fmt.Errorf("replica: follower needs a caller to the leader")
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 10 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	f := &Follower{
		cfg:          cfg,
		started:      time.Now(),
		applied:      cfg.Obs.Counter("repl_records_applied_total"),
		snapshots:    cfg.Obs.Counter("repl_snapshots_applied_total"),
		applyErrs:    cfg.Obs.Counter("repl_apply_errors_total"),
		readsDenied:  cfg.Obs.Counter("repl_reads_denied_stale_total"),
		writesDenied: cfg.Obs.Counter("repl_writes_denied_nolease_total"),
		writesProxy:  cfg.Obs.Counter("repl_writes_proxied_total"),
		connects:     cfg.Obs.Counter("repl_connects_total"),
		disconnects:  cfg.Obs.Counter("repl_disconnects_total"),
		state:        durable.NewState(),
		svcs:         make(map[string]*core.Service),
		handlers:     make(map[string]rpc.Handler),
		registered:   make(map[string]bool),
		stop:         make(chan struct{}),
	}
	cfg.Obs.Func("repl_lag_ms", func() uint64 { return uint64(f.Lag().Milliseconds()) })
	cfg.Obs.Func("repl_connected", func() uint64 {
		if f.connected.Load() {
			return 1
		}
		return 0
	})
	return f, nil
}

// Run starts the subscription and lease loops. Call once.
func (f *Follower) Run() {
	f.wg.Add(2)
	go f.runStream()
	go f.leaseLoop()
}

// Close stops the loops and tears the replicated services down.
func (f *Follower) Close() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, svc := range f.svcs {
		svc.Close()
	}
	f.svcs = make(map[string]*core.Service)
	f.handlers = make(map[string]rpc.Handler)
}

// Cursor reports the follower's replication position.
func (f *Follower) Cursor() durable.Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

// StateHash digests the mirrored state, for convergence checks against
// the leader's journal.
func (f *Follower) StateHash() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return StateHash(f.state)
}

// Services lists the replicated service names.
func (f *Follower) Services() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.svcs))
	for name := range f.svcs {
		names = append(names, name)
	}
	return names
}

// Connected reports whether the journal stream is currently live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// Lag is the time since the last leader contact (since start when there
// has been none) — the replication staleness reads are gated on.
func (f *Follower) Lag() time.Duration {
	last := f.lastContact.Load()
	if last == 0 {
		return time.Since(f.started)
	}
	return time.Since(time.Unix(0, last))
}

// Leased reports whether the follower currently holds a live write
// lease.
func (f *Follower) Leased() bool {
	return time.Now().UnixNano() < f.leaseUntil.Load()
}

// Handler returns the wire handler for one replicated service —
// validation answered locally (failing closed on staleness), every
// other method proxied to the leader under the lease. It works before
// the service has materialised (refusing reads until it does), so it
// can be registered eagerly.
func (f *Follower) Handler(name string) rpc.Handler {
	return func(method string, body []byte) ([]byte, error) {
		switch method {
		case "validate_rmc", "validate_appt", "validate_batch":
			if err := f.readAllowed(); err != nil {
				f.readsDenied.Inc()
				return nil, err
			}
			f.mu.Lock()
			h := f.handlers[name]
			f.mu.Unlock()
			if h == nil {
				f.readsDenied.Inc()
				return nil, fmt.Errorf("replica: service %q not replicated here", name)
			}
			return h(method, body)
		default:
			if err := f.writeAllowed(); err != nil {
				f.writesDenied.Inc()
				return nil, err
			}
			f.writesProxy.Inc()
			return f.cfg.Caller.Call(name, method, body)
		}
	}
}

// readAllowed gates local validation on replication freshness.
func (f *Follower) readAllowed() error {
	last := f.lastContact.Load()
	if last == 0 {
		return fmt.Errorf("replica: no leader contact since start; %w", ErrStale)
	}
	if age := time.Since(time.Unix(0, last)); age > f.cfg.StaleAfter {
		return fmt.Errorf("replica: leader silent %v (bound %v); %w",
			age.Round(time.Millisecond), f.cfg.StaleAfter, ErrStale)
	}
	return nil
}

// writeAllowed gates write proxying on the lease.
func (f *Follower) writeAllowed() error {
	if !f.Leased() {
		return fmt.Errorf("replica: %w", ErrNoLease)
	}
	return nil
}

// runStream is the connect → subscribe → wait → backoff loop.
func (f *Follower) runStream() {
	defer f.wg.Done()
	backoff := f.cfg.BaseBackoff
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		sub, err := f.subscribe()
		if err != nil {
			if !f.sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > f.cfg.MaxBackoff {
				backoff = f.cfg.MaxBackoff
			}
			continue
		}
		backoff = f.cfg.BaseBackoff
		f.connects.Inc()
		f.connected.Store(true)
		damaged := false
		select {
		case <-sub.st.Done():
		case <-sub.bad:
			damaged = true
		case <-f.stop:
			sub.cli.Close() //nolint:errcheck
			f.connected.Store(false)
			return
		}
		f.connected.Store(false)
		f.disconnects.Inc()
		sub.cli.Close() //nolint:errcheck
		// A stream that delivered damaged bytes resubscribes from
		// scratch (subscription.fail zeroed the cursor) — after a beat,
		// so a leader that keeps producing them is not hammered.
		if damaged && !f.sleep(f.cfg.BaseBackoff) {
			return
		}
	}
}

// subscription is the receive side of one subscribe_journal stream.
type subscription struct {
	f   *Follower
	st  *rpc.ClientStream
	cli *rpc.TCPClient
	// bad is closed by the first message that does not check out; from
	// then on the subscription ignores everything it is sent. Only the
	// connection's read loop (onEvent) touches dead.
	bad  chan struct{}
	dead bool
}

// subscribe dials a dedicated connection and opens the journal stream
// from the current cursor.
func (f *Follower) subscribe() (*subscription, error) {
	cli, err := rpc.DialTCP(f.cfg.Leader, f.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	cur := f.cursor
	f.mu.Unlock()
	body, err := json.Marshal(cur)
	if err != nil {
		cli.Close() //nolint:errcheck
		return nil, err
	}
	sub := &subscription{f: f, cli: cli, bad: make(chan struct{})}
	sub.st, err = cli.Stream(Service, MethodSubscribe, body, sub.onEvent)
	if err != nil {
		cli.Close() //nolint:errcheck
		return nil, err
	}
	return sub, nil
}

func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stop:
		return false
	case <-t.C:
		return true
	}
}

// onEvent consumes one stream message. The body is decoded with the
// journal's own reader — checksums and all — before a single record of
// it is applied.
func (s *subscription) onEvent(b []byte) {
	if s.dead {
		return
	}
	f := s.f
	m, err := DecodeMessage(b)
	if err != nil {
		s.fail()
		return
	}
	switch m.Kind {
	case KindHello, KindHB:
		f.mu.Lock()
		f.cursor = m.Cursor
		f.mu.Unlock()
	case KindSnapshot:
		st := durable.NewState() // an empty body is the empty state
		if len(m.Body) > 0 {
			if st, err = durable.DecodeSnapshot(m.Body); err != nil {
				s.fail()
				return
			}
		}
		f.applySnapshot(st, m.Cursor)
	case KindRecs:
		recs, err := durable.DecodeFrames(m.Body)
		if err != nil {
			s.fail()
			return
		}
		f.applyRecs(recs, m.Cursor)
	}
	f.lastContact.Store(time.Now().UnixNano())
}

// fail retires the subscription after a message that does not decode or
// fails a checksum: none of it is applied, nothing after it can be (a
// frame was skipped), so the cursor is zeroed — the next subscription
// starts from a snapshot — and runStream is told to drop the connection.
func (s *subscription) fail() {
	s.dead = true
	s.f.applyErrs.Inc()
	s.f.mu.Lock()
	s.f.cursor = durable.Cursor{}
	s.f.mu.Unlock()
	close(s.bad)
}

// applyRecs folds shipped records into the mirror and the live services.
func (f *Follower) applyRecs(recs []durable.Record, cur durable.Cursor) {
	f.mu.Lock()
	var evs []event.Event
	for _, r := range recs {
		f.state.Apply(r)
		evs = append(evs, f.applyLive(r)...)
	}
	f.cursor = cur
	f.mu.Unlock()
	f.applied.Add(uint64(len(recs)))
	for _, ev := range evs {
		f.cfg.Broker.Publish(ev) //nolint:errcheck // fire-and-forget fan-out
	}
}

// applySnapshot discards local state for the shipped one: services are
// rebuilt from scratch, the fact store is reconciled, and — because a
// reset means an unknown stretch of history was skipped — a revocation
// event is republished for every revoked entry, so follower-attached
// edge caches cannot keep serving a verdict whose revocation fell into
// the gap.
func (f *Follower) applySnapshot(st *durable.State, cur durable.Cursor) {
	f.mu.Lock()
	for _, svc := range f.svcs {
		svc.Close()
	}
	f.svcs = make(map[string]*core.Service)
	f.handlers = make(map[string]rpc.Handler)
	oldFacts := f.state.Facts
	f.state = st
	for name := range st.Services {
		f.materializeLocked(name)
	}
	if f.cfg.Store != nil {
		for key, fact := range oldFacts {
			if _, ok := st.Facts[key]; !ok {
				f.cfg.Store.Retract(fact.Relation, fact.Tuple...) //nolint:errcheck
			}
		}
		for _, fact := range st.Facts {
			f.cfg.Store.Assert(fact.Relation, fact.Tuple...) //nolint:errcheck
		}
	}
	f.cursor = cur
	var evs []event.Event
	now := time.Now()
	for name, ss := range st.Services {
		for serial, cr := range ss.CRs {
			if cr.Revoked {
				evs = append(evs, crRevokedEvent(name, serial, cr.Reason, now))
			}
		}
		for _, a := range ss.Appts {
			if a.Revoked && a.Cert.Issuer != "" {
				evs = append(evs, apptRevokedEvent(a.Cert.Key(), a.Reason, now))
			}
		}
	}
	f.mu.Unlock()
	f.snapshots.Inc()
	for _, ev := range evs {
		f.cfg.Broker.Publish(ev) //nolint:errcheck
	}
}

// applyLive applies one record to the live services (the mirror has
// already been updated, so it is the source of truth for the entry's
// final shape). Returns events the caller must publish after unlocking.
func (f *Follower) applyLive(r durable.Record) []event.Event {
	switch r.Op {
	case durable.OpKeys:
		// New signing secrets: rebuild the service so certificates
		// verify under the restored ring.
		f.materializeLocked(r.Service)
	case durable.OpCRIssue, durable.OpCRRevoke, durable.OpApptIssue, durable.OpApptRevoke:
		// Credential and appointment mutations replay through the same
		// apply function the leader's sequencer runs (ApplyReplicated →
		// applyMutState): no parallel copy of the mutation semantics.
		// Events come back for the caller to publish in record order —
		// a revocation always yields one, even when the record was
		// unknown here (a tombstone is installed), so follower-attached
		// edge caches drop the credential regardless.
		svc := f.serviceLocked(r.Service)
		if svc == nil {
			return nil
		}
		evs, err := svc.ApplyReplicated(r)
		if err != nil {
			f.applyErrs.Inc()
		}
		if r.Op == durable.OpApptRevoke && len(evs) == 0 {
			// The live service had nothing to revoke (tombstone-only
			// entry, or already revoked); publish from the mirror so
			// edge caches drop it.
			if ss := f.state.Services[r.Service]; ss != nil {
				if a := ss.Appts[r.Serial]; a != nil && a.Cert.Issuer != "" {
					return []event.Event{apptRevokedEvent(a.Cert.Key(), r.Reason, time.Now())}
				}
			}
		}
		return evs
	case durable.OpFactAssert:
		if f.cfg.Store != nil {
			f.cfg.Store.Assert(r.Relation, r.Tuple...) //nolint:errcheck
		}
	case durable.OpFactRetract:
		if f.cfg.Store != nil {
			f.cfg.Store.Retract(r.Relation, r.Tuple...) //nolint:errcheck
		}
	}
	return nil
}

// serviceLocked returns the live service for name, materialising it
// from the mirror on first sight. Callers hold f.mu.
func (f *Follower) serviceLocked(name string) *core.Service {
	if svc, ok := f.svcs[name]; ok {
		return svc
	}
	f.materializeLocked(name)
	return f.svcs[name]
}

// materializeLocked (re)builds one live read-only service from the
// mirrored state: ring restored from the journaled secrets, every CR
// and appointment re-installed. Callers hold f.mu.
func (f *Follower) materializeLocked(name string) {
	if old, ok := f.svcs[name]; ok {
		old.Close()
		delete(f.svcs, name)
		delete(f.handlers, name)
	}
	ss := f.state.Services[name]
	if ss == nil {
		return
	}
	var ring *sign.KeyRing
	if len(ss.Secrets) > 0 {
		var err error
		ring, err = sign.NewKeyRingFromSecrets(ss.Secrets, ss.Retain, nil)
		if err != nil {
			f.applyErrs.Inc()
			return
		}
	}
	svc, err := core.NewService(core.Config{
		Name:             name,
		Broker:           f.cfg.Broker,
		Caller:           f.cfg.Caller,
		KeyRing:          ring,
		ReadOnly:         true,
		CacheValidations: true,
		CacheMaxEntries:  f.cfg.ECRCacheMax,
		Obs:              f.cfg.Obs,
	})
	if err != nil {
		f.applyErrs.Inc()
		return
	}
	for serial, cr := range ss.CRs {
		if rerr := svc.RestoreCR(serial, cr.Subject, cr.Holder, cr.Revoked, cr.Reason); rerr != nil {
			f.applyErrs.Inc()
		}
	}
	for _, a := range ss.Appts {
		if a.Cert.Issuer != "" {
			svc.RestoreAppointment(a.Cert, a.Revoked)
		}
	}
	f.svcs[name] = svc
	f.handlers[name] = svc.Handler()
	if f.cfg.Register != nil && !f.registered[name] {
		f.registered[name] = true
		f.cfg.Register(name, f.Handler(name))
	}
}

// leaseLoop renews the write-proxy lease at a third of its TTL,
// backing off while the leader is unreachable (during which the lease
// simply expires and writes fail closed).
func (f *Follower) leaseLoop() {
	defer f.wg.Done()
	period := f.cfg.BaseBackoff
	for {
		ttl, err := f.renewLease()
		if err != nil {
			if period *= 2; period > f.cfg.MaxBackoff {
				period = f.cfg.MaxBackoff
			}
		} else {
			period = ttl / 3
			if period < 10*time.Millisecond {
				period = 10 * time.Millisecond
			}
		}
		if !f.sleep(period) {
			return
		}
	}
}

// renewLease asks the leader for a fresh lease and arms leaseUntil.
func (f *Follower) renewLease() (time.Duration, error) {
	out, err := f.cfg.Caller.Call(Service, MethodLease, []byte(`{}`))
	if err != nil {
		return 0, err
	}
	var lr LeaseResponse
	if err := json.Unmarshal(out, &lr); err != nil {
		return 0, err
	}
	ttl := time.Duration(lr.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		return 0, fmt.Errorf("replica: leader granted a zero lease")
	}
	f.leaseUntil.Store(time.Now().Add(ttl).UnixNano())
	return ttl, nil
}

// crRevokedEvent is the revocation announcement the follower publishes
// when it applies a revocation the live service could not (or when a
// snapshot reset may have skipped the original event).
func crRevokedEvent(service string, serial uint64, reason string, at time.Time) event.Event {
	ref := cert.CRR{Issuer: service, Serial: serial}
	return event.Event{
		Topic:   core.TopicCR(ref),
		Kind:    event.KindRevoked,
		Subject: ref.String(),
		Reason:  reason,
		At:      at,
	}
}

func apptRevokedEvent(key, reason string, at time.Time) event.Event {
	return event.Event{
		Topic:   core.TopicAppt(key),
		Kind:    event.KindRevoked,
		Subject: key,
		Reason:  reason,
		At:      at,
	}
}
