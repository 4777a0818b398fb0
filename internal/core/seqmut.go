package core

import (
	"fmt"

	"repro/internal/cert"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/obs"
)

// This file is the mutation spine of the unified async core: every
// credential-record issue/revoke, appointment issue/revoke and key
// install becomes a mutOp submitted to the service's per-shard
// sequencer (internal/seq). The shard's apply loop drains a batch,
// applies the state mutations under the shard lock once, emits the
// batch to the journal as one contiguous record group, then publishes
// the batch's events to the broker in the same order. Per shard,
// journal order == broker publish order == replication ship order (the
// shipper tails the journal, so ship order is disk order for free).
//
// The follower's replication applier reuses applyMutState verbatim via
// ApplyReplicated — there is no parallel copy of the apply logic.

// mutKind discriminates the sequencer's mutation operations.
type mutKind uint8

const (
	mutCRIssue mutKind = iota + 1
	mutCRRevoke
	mutApptIssue
	mutApptRevoke
	mutKeys
)

// mutOp is one mutation flowing through the sequencer: inputs filled by
// the caller, outputs filled by the apply loop. The submitting
// goroutine blocks on done until its op's batch has been applied,
// journaled and published.
type mutOp struct {
	kind mutKind

	// Inputs.
	serial  uint64
	reason  string
	subject string // crIssue: ground role key
	holder  string // crIssue: principal
	cr      *CredRecord
	appt    cert.AppointmentCertificate
	via     event.Event // crRevoke: triggering event (zero for cascade roots)
	// replicated marks an op applied from a replication stream: state
	// mutates, but nothing is journaled (the leader already did) and
	// events are returned to the follower rather than published here.
	replicated bool

	// Outputs.
	did    bool
	err    error
	ev     event.Event
	hasEv  bool
	rec    durable.Record
	hasRec bool
	refStr string // crRevoke: CRR string for the trace event
	hopNs  int64

	done chan struct{} // buffered(1); signalled once the op is fully processed
}

func newMutOp(kind mutKind) *mutOp {
	return &mutOp{kind: kind, done: make(chan struct{}, 1)}
}

// seqShardOf maps a serial to its sequencer shard. It matches the
// credential tables' own sharding (serial % crShards) so one shard's
// apply loop owns exactly one serialShard/recordShard pair.
func seqShardOf(serial uint64) int { return int(serial % crShards) }

// mustWait reports whether op's journal record must be durable before
// its event publishes: a revocation (once it fans out, remote caches drop
// the credential, and a crash must not resurrect it), an appointment
// issue (the certificate outlives sessions, so the issuer must remember
// it before the holder does) and a key install. A lost credential-record
// issue fails closed — the certificate is denied after a crash — so
// issues are fire-and-forget.
func mustWait(op *mutOp) bool { return op.kind != mutCRIssue }

// runMut pushes op through the sequencer and waits for completion. A
// ReadOnly service has no sequencer, and a closed one refuses Submit; the
// op then applies inline on the caller's goroutine through the same
// state, journal and publish steps, one op at a time.
func (s *Service) runMut(op *mutOp) {
	if s.seq != nil {
		if err := s.seq.Submit(seqShardOf(op.shardSerial()), op); err == nil {
			<-op.done
			return
		}
		// Sequencer closed (service shutting down): apply directly so
		// late deactivations still land.
	}
	s.applyMutState(op, nil)
	if op.hasRec {
		if err := s.journal.AppendGroup([]durable.Record{op.rec}, mustWait(op)); err != nil {
			op.err = err
		}
	}
	if op.hasEv && !op.replicated {
		s.broker.Publish(op.ev) //nolint:errcheck // fire-and-forget fan-out
	}
	s.finishMut(op)
}

// shardSerial picks the serial that routes the op to its shard. Every
// op about one credential or appointment serial must land on the same
// shard so its journal/publish order is total.
func (op *mutOp) shardSerial() uint64 {
	if op.kind == mutKeys {
		return 0
	}
	return op.serial
}

// applySeqBatch is the sequencer's Apply hook: the shard's whole batch
// in submission order. Phases — state, journal, publish — each run once
// per batch, which is where write batching "falls out": one credential
// table lock hold, one journal frame group (one fsync wait), one broker
// tap snapshot.
func (s *Service) applySeqBatch(shard int, ops []*mutOp) {
	sc := &s.seqScratch[shard%crShards]

	// Phase 1: state. Credential-table mutations are deferred into one
	// applyBatch call under a single serial-shard lock hold; everything
	// else (record table, appointments) applies per op in order.
	crb := sc.crMuts[:0]
	for _, op := range ops {
		crb = s.applyMutState(op, crb)
	}
	s.crs.applyBatch(shard, crb)
	for i := range crb {
		m := &crb[i]
		if m.insert == nil && m.removed != nil {
			s.retireCR(m.removed, m.remove)
		}
	}
	sc.crMuts = crb[:0]

	// Phase 2: journal, one contiguous group, durable before publish when
	// any of its records must be.
	recs := sc.recs[:0]
	wait := false
	for _, op := range ops {
		if op.hasRec {
			recs = append(recs, op.rec)
			wait = wait || mustWait(op)
		}
	}
	if len(recs) > 0 {
		if err := s.journal.AppendGroup(recs, wait); err != nil {
			for _, op := range ops {
				if op.hasRec {
					op.err = err
				}
			}
		}
	}
	sc.recs = recs[:0]

	// Phase 3: publish in batch order, then complete each op.
	evs := sc.evs[:0]
	for _, op := range ops {
		if op.hasEv && !op.replicated {
			evs = append(evs, op.ev)
		}
	}
	s.broker.PublishBatch(evs) //nolint:errcheck // fire-and-forget fan-out
	sc.evs = evs[:0]
	for _, op := range ops {
		s.finishMut(op)
		op.done <- struct{}{}
	}
}

// seqShardScratch is per-shard apply-loop scratch. Only the shard's
// combiner touches it (the sequencer guarantees one Apply at a time per
// shard), so reuse is free of locks and the steady state allocates
// nothing per batch.
type seqShardScratch struct {
	crMuts []crMut
	recs   []durable.Record
	evs    []event.Event
	_      [24]byte // pad: neighbouring shards' scratch on separate cache lines
}

// applyMutState applies op's state mutation and computes its outputs
// (journal record, event). It is THE apply function: the live path runs
// it inside the sequencer, the inline path runs it directly, and the
// replication follower runs it via ApplyReplicated — identical
// semantics everywhere by construction.
//
// crb controls credential-table batching: non-nil defers table
// mutations to the caller (the shard apply loop commits them in one
// lock hold and retires removals); nil applies them immediately.
func (s *Service) applyMutState(op *mutOp, crb []crMut) []crMut {
	switch op.kind {
	case mutCRIssue:
		if op.replicated {
			// A revoked tombstone already present (stream replay
			// overlap after a reset) must not be resurrected by a
			// replayed issue.
			if st := s.records.Status(op.serial); st.Exists && st.Revoked {
				op.did = true
				return crb
			}
			op.err = s.RestoreCR(op.serial, op.subject, op.holder, false, "")
			op.did = op.err == nil
			return crb
		}
		s.records.IssueAt(op.serial, op.subject, op.holder)
		if crb != nil {
			crb = append(crb, crMut{insert: op.cr})
		} else {
			s.crs.insert(op.cr)
		}
		s.stats.activations.Add(1)
		if s.journal != nil {
			op.rec = durable.Record{Op: durable.OpCRIssue, Service: s.name, Serial: op.serial, Subject: op.subject, Holder: op.holder}
			op.hasRec = true
		}
		op.did = true

	case mutCRRevoke:
		if !s.records.Revoke(op.serial, op.reason) {
			// Already revoked, or unknown. A replicated revoke must
			// still converge: the leader journaled it, so if this table
			// has never seen the serial, install a tombstone, and always
			// surface the event so downstream caches drop the
			// credential.
			if op.replicated {
				if !s.records.Status(op.serial).Exists {
					op.err = s.RestoreCR(op.serial, "", "", true, op.reason)
				}
				s.buildRevokeEvent(op)
			}
			return crb
		}
		if crb != nil {
			crb = append(crb, crMut{remove: op.serial})
		} else if cr := s.crs.remove(op.serial); cr != nil {
			s.retireCR(cr, op.serial)
		}
		s.stats.revocations.Add(1)
		s.buildRevokeEvent(op)
		if s.journal != nil && !op.replicated {
			op.rec = durable.Record{Op: durable.OpCRRevoke, Service: s.name, Serial: op.serial, Reason: op.reason}
			op.hasRec = true
		}
		op.did = true

	case mutApptIssue:
		// Live and replicated issues share RestoreAppointment: it
		// installs the record and advances the serial allocator past
		// it, which is exactly what both need.
		s.RestoreAppointment(op.appt, false)
		if s.journal != nil && !op.replicated {
			a := op.appt
			op.rec = durable.Record{Op: durable.OpApptIssue, Service: s.name, Serial: a.Serial, Appt: &a}
			op.hasRec = true
		}
		op.did = true

	case mutApptRevoke:
		s.apptMu.Lock()
		rec, ok := s.appts[op.serial]
		if !ok || rec.revoked {
			s.apptMu.Unlock()
			return crb
		}
		rec.revoked = true
		key := rec.appt.Key()
		s.apptMu.Unlock()
		op.ev = event.Event{
			Topic:   TopicAppt(key),
			Kind:    event.KindRevoked,
			Subject: key,
			Reason:  op.reason,
			At:      s.clk.Now(),
		}
		op.hasEv = true
		if s.journal != nil && !op.replicated {
			op.rec = durable.Record{Op: durable.OpApptRevoke, Service: s.name, Serial: op.serial, Reason: op.reason}
			op.hasRec = true
		}
		op.did = true

	case mutKeys:
		// No in-memory mutation: the ring already holds the keys. The
		// op exists to place the export into the journal stream.
		op.did = true
	}
	return crb
}

// buildRevokeEvent fills op.ev with the revocation event, propagating
// cascade provenance: a root mints the correlation id every dependent
// deactivation inherits; a dependent is one hop deeper and records the
// hop latency.
func (s *Service) buildRevokeEvent(op *mutOp) {
	ref := cert.CRR{Issuer: s.name, Serial: op.serial}
	op.refStr = ref.String()
	now := s.clk.Now()
	corr, depth := op.via.Corr, 0
	if corr == "" {
		// Serials are revoke-once, so the id is unique without a
		// counter.
		corr = fmt.Sprintf("cas:%s#%d", s.name, op.serial)
	} else {
		depth = op.via.Depth + 1
		if !op.via.At.IsZero() {
			op.hopNs = now.Sub(op.via.At).Nanoseconds()
		}
	}
	op.ev = event.Event{
		Topic:   TopicCR(ref),
		Kind:    event.KindRevoked,
		Subject: op.refStr,
		Reason:  op.reason,
		At:      now,
		Corr:    corr,
		Depth:   depth,
	}
	op.hasEv = true
}

// retireCR tears down a removed record's monitoring state: marks it
// dead (so a membership watch installed concurrently is cancelled
// rather than leaked), cancels its subscriptions and drops its env
// index entries.
func (s *Service) retireCR(cr *CredRecord, serial uint64) {
	cr.mu.Lock()
	cr.deactivated = true
	subs := cr.subs
	cr.subs = nil
	deps := cr.envDeps
	cr.mu.Unlock()
	s.envIndexRemove(deps, serial)
	for _, sub := range subs {
		sub.Cancel()
	}
}

// finishMut records the op's observability tail: cascade histograms and
// the trace event for winning revocations. Runs after publish, matching
// the pre-sequencer order.
func (s *Service) finishMut(op *mutOp) {
	if op.kind != mutCRRevoke || !op.did {
		return
	}
	if op.hopNs > 0 {
		s.obsm.cascadeHopNs.Observe(op.hopNs)
	}
	s.obsm.cascadeDepth.Observe(int64(op.ev.Depth))
	s.obsm.trace(obs.TraceEvent{
		Kind: "revoke", Service: s.name, Subject: op.refStr,
		Outcome: "ok", Corr: op.ev.Corr, Depth: op.ev.Depth, Detail: op.reason, DurNs: op.hopNs,
	})
}

// ApplyReplicated applies one replicated journal record through the
// same applyMutState the live path uses, and returns the events the
// caller (a replication follower) must publish on its own broker, in
// order. Nothing is journaled — the record came from a journal.
func (s *Service) ApplyReplicated(r durable.Record) ([]event.Event, error) {
	op := newMutOp(0)
	op.replicated = true
	switch r.Op {
	case durable.OpCRIssue:
		op.kind = mutCRIssue
		op.serial, op.subject, op.holder = r.Serial, r.Subject, r.Holder
	case durable.OpCRRevoke:
		op.kind = mutCRRevoke
		op.serial, op.reason = r.Serial, r.Reason
	case durable.OpApptIssue:
		if r.Appt == nil {
			return nil, fmt.Errorf("service %s: appt-issue record %d without certificate", s.name, r.Serial)
		}
		op.kind = mutApptIssue
		op.serial, op.appt = r.Serial, *r.Appt
	case durable.OpApptRevoke:
		op.kind = mutApptRevoke
		op.serial, op.reason = r.Serial, r.Reason
	default:
		return nil, fmt.Errorf("service %s: op %q is not a replicable mutation", s.name, r.Op)
	}
	s.applyMutState(op, nil)
	s.finishMut(op)
	if op.hasEv {
		return []event.Event{op.ev}, op.err
	}
	return nil, op.err
}

// InstallKeys journals the service's signing-key export through the
// mutation sequencer, so a key install shares the ordered stream with
// the certificates those keys sign. First-boot daemons call this
// instead of exporting and appending by hand.
func (s *Service) InstallKeys() error {
	if s.journal == nil {
		return nil
	}
	secrets, retain := s.ring.Export()
	op := newMutOp(mutKeys)
	op.rec = durable.Record{Op: durable.OpKeys, Service: s.name, Retain: retain, Secrets: secrets}
	op.hasRec = true
	s.runMut(op)
	return op.err
}
