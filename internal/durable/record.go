// Package durable gives the OASIS issuer a memory that survives crashes.
//
// The paper's appointment certificates are deliberately long-lived — they
// outlive sessions and are validated by callback to the issuer's
// credential record (Sects. 5, 7) — yet without this package every
// credential record, appointment and signing secret lives only in process
// memory: one daemon restart silently invalidates every outstanding
// certificate (fail-closed amnesia) and, worse, forgets which ones were
// revoked. durable fixes that with an append-only, length-prefixed,
// checksummed journal of state mutations plus periodic compacting
// snapshots, replayed on startup to rebuild issuer state before the
// listener opens.
//
// What is journaled: appointment issue/revoke (the long-lived
// credentials), credential-record issue/revoke (so callback validation of
// pre-crash RMCs stays authoritative: issued-and-live answers valid,
// revoked stays revoked), fact assert/retract (the environmental truth
// membership rules consult), and signing-key material (so surviving
// certificates still Verify under the restored ring). What is
// deliberately ephemeral: sessions, session proofs and the membership
// monitoring tree — RMCs are session-scoped in the paper, and a session
// does not survive its issuer's crash; the journal preserves validation
// continuity, not live sessions.
//
// Journal writes are batched with a group-commit window (one fsync
// amortised over every mutation that raced into the window) so the
// engine's hot paths keep their lock-free profile; corrupt or truncated
// tail records — a crash mid-append — are detected by checksum and safely
// discarded.
package durable

import (
	"strings"

	"repro/internal/cert"
	"repro/internal/names"
	"repro/internal/sign"
)

// Op names one journaled mutation kind. The values are short on purpose:
// they appear in every journal record.
type Op string

// The journaled mutation kinds.
const (
	// OpKeys installs a service's signing secrets (key ring export).
	OpKeys Op = "keys"
	// OpCRIssue records the issue of a credential record (an RMC's
	// validity state).
	OpCRIssue Op = "cr+"
	// OpCRRevoke records the revocation of a credential record.
	OpCRRevoke Op = "cr-"
	// OpApptIssue records an issued appointment certificate, in full:
	// the certificate is the record.
	OpApptIssue Op = "appt+"
	// OpApptRevoke records the revocation of an appointment.
	OpApptRevoke Op = "appt-"
	// OpFactAssert records a fact asserted into the shared store.
	OpFactAssert Op = "fact+"
	// OpFactRetract records a fact retracted from the shared store.
	OpFactRetract Op = "fact-"
)

// Record is one journal entry. Fields are a union over the ops; the
// encoding carries only the fields the record's Op defines (codec.go).
// The json tags are the legacy journal's, read only by the migrator.
type Record struct {
	Op      Op     `json:"op"`
	Service string `json:"svc,omitempty"`
	Serial  uint64 `json:"serial,omitempty"`
	// Subject is the CR's ground-role key; Holder the principal it was
	// issued to (both needed to answer validation callbacks).
	Subject string `json:"subject,omitempty"`
	Holder  string `json:"holder,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Appt carries the whole signed certificate for OpApptIssue, so
	// replay restores something that still verifies and can be
	// re-presented.
	Appt *cert.AppointmentCertificate `json:"appt,omitempty"`
	// Relation and Tuple describe a fact mutation.
	Relation string       `json:"rel,omitempty"`
	Tuple    []names.Term `json:"tuple,omitempty"`
	// Secrets and Retain carry a key-ring export for OpKeys.
	Secrets []sign.Secret `json:"secrets,omitempty"`
	Retain  int           `json:"retain,omitempty"`
}

// CRState is the durable validity state of one credential record.
type CRState struct {
	Subject string `json:"subject"`
	Holder  string `json:"holder"`
	Revoked bool   `json:"revoked,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// ApptState is the durable state of one issued appointment.
type ApptState struct {
	Cert    cert.AppointmentCertificate `json:"cert"`
	Revoked bool                        `json:"revoked,omitempty"`
	Reason  string                      `json:"reason,omitempty"`
}

// ServiceState is everything one service needs restored to keep answering
// authoritatively for certificates it issued before the crash.
type ServiceState struct {
	Secrets []sign.Secret         `json:"secrets,omitempty"`
	Retain  int                   `json:"retain,omitempty"`
	CRs     map[uint64]*CRState   `json:"crs,omitempty"`
	Appts   map[uint64]*ApptState `json:"appts,omitempty"`
}

// Fact is one ground tuple in the shared fact store.
type Fact struct {
	Relation string       `json:"rel"`
	Tuple    []names.Term `json:"tuple"`
}

// State is the replayed issuer state of a whole daemon: per-service
// credential state plus the shared fact store. Applying a journal record
// is idempotent (a record re-applied on top of a snapshot that already
// includes it converges to the same state), which is what makes the
// overlap between a compacting snapshot and the journal generation it
// seals harmless.
type State struct {
	Services map[string]*ServiceState `json:"services,omitempty"`
	Facts    map[string]Fact          `json:"facts,omitempty"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Services: make(map[string]*ServiceState),
		Facts:    make(map[string]Fact),
	}
}

func (st *State) service(name string) *ServiceState {
	if st.Services == nil {
		st.Services = make(map[string]*ServiceState)
	}
	ss, ok := st.Services[name]
	if !ok {
		ss = &ServiceState{
			CRs:   make(map[uint64]*CRState),
			Appts: make(map[uint64]*ApptState),
		}
		st.Services[name] = ss
	}
	// Maps may be nil in a state decoded from a legacy JSON snapshot.
	if ss.CRs == nil {
		ss.CRs = make(map[uint64]*CRState)
	}
	if ss.Appts == nil {
		ss.Appts = make(map[uint64]*ApptState)
	}
	return ss
}

// Clone returns a deep copy: nothing reachable from the result is
// shared with st, so the caller may keep it while st keeps applying.
func (st *State) Clone() *State {
	out := &State{
		Services: make(map[string]*ServiceState, len(st.Services)),
		Facts:    make(map[string]Fact, len(st.Facts)),
	}
	for name, ss := range st.Services {
		cp := &ServiceState{
			Secrets: append([]sign.Secret(nil), ss.Secrets...),
			Retain:  ss.Retain,
			CRs:     make(map[uint64]*CRState, len(ss.CRs)),
			Appts:   make(map[uint64]*ApptState, len(ss.Appts)),
		}
		for serial, cr := range ss.CRs {
			c := *cr
			cp.CRs[serial] = &c
		}
		for serial, a := range ss.Appts {
			c := *a
			c.Cert.Params = append([]names.Term(nil), a.Cert.Params...)
			cp.Appts[serial] = &c
		}
		out.Services[name] = cp
	}
	for key, f := range st.Facts {
		out.Facts[key] = Fact{Relation: f.Relation, Tuple: append([]names.Term(nil), f.Tuple...)}
	}
	return out
}

// FactKey canonically identifies a ground tuple within a relation.
func FactKey(relation string, tuple []names.Term) string {
	parts := make([]string, 0, len(tuple)+1)
	parts = append(parts, relation)
	for _, t := range tuple {
		parts = append(parts, t.Kind.String()+":"+t.String())
	}
	return strings.Join(parts, "\x1f")
}

// Apply folds one journal record into the state, in journal order.
// Revocations of unknown serials leave a revoked tombstone so a pending
// revocation is never forgotten, whatever interleaving the journal holds.
func (st *State) Apply(r Record) {
	switch r.Op {
	case OpKeys:
		ss := st.service(r.Service)
		ss.Secrets = append([]sign.Secret(nil), r.Secrets...)
		ss.Retain = r.Retain
	case OpCRIssue:
		ss := st.service(r.Service)
		if cr, ok := ss.CRs[r.Serial]; ok && cr.Revoked {
			// Idempotent replay over a snapshot that already saw the
			// later revocation: keep the revocation, refresh the rest.
			cr.Subject, cr.Holder = r.Subject, r.Holder
			return
		}
		ss.CRs[r.Serial] = &CRState{Subject: r.Subject, Holder: r.Holder}
	case OpCRRevoke:
		ss := st.service(r.Service)
		cr, ok := ss.CRs[r.Serial]
		if !ok {
			cr = &CRState{}
			ss.CRs[r.Serial] = cr
		}
		cr.Revoked = true
		cr.Reason = r.Reason
	case OpApptIssue:
		if r.Appt == nil {
			return
		}
		ss := st.service(r.Service)
		if a, ok := ss.Appts[r.Serial]; ok && a.Revoked {
			a.Cert = *r.Appt
			return
		}
		ss.Appts[r.Serial] = &ApptState{Cert: *r.Appt}
	case OpApptRevoke:
		ss := st.service(r.Service)
		a, ok := ss.Appts[r.Serial]
		if !ok {
			a = &ApptState{}
			ss.Appts[r.Serial] = a
		}
		a.Revoked = true
		a.Reason = r.Reason
	case OpFactAssert:
		if st.Facts == nil {
			st.Facts = make(map[string]Fact)
		}
		st.Facts[FactKey(r.Relation, r.Tuple)] = Fact{Relation: r.Relation, Tuple: r.Tuple}
	case OpFactRetract:
		delete(st.Facts, FactKey(r.Relation, r.Tuple))
	}
}
