package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/names"
)

// RecordStore holds the validity state of issued role membership
// certificates. The default is service-local memory (each service issues
// and validates its own certificates, "as is possible in the
// architecture" — Sect. 4), but a domain may instead plug in its highly
// available replicated CIV service (paper ref [10]; see internal/civ and
// the CIVRecords adapter in the domain package).
type RecordStore interface {
	// Issue allocates a serial for a new certificate with the given
	// subject (the ground role) and holder (the principal id).
	Issue(subject, holder string) (uint64, error)
	// Revoke invalidates a serial; it reports whether the record was
	// live (false means already revoked or unknown: callers treat
	// Revoke as idempotent).
	Revoke(serial uint64, reason string) (bool, error)
	// Status reads a record's state.
	Status(serial uint64) (RecordStatus, error)
}

// RecordStatus is a RecordStore read.
type RecordStatus struct {
	Exists  bool
	Revoked bool
	Holder  string
	Subject string
	Reason  string
}

// SerialIssuer is the optional RecordStore extension the sequencer path
// uses: Activate allocates the serial up front (it goes into the signed
// RMC and the journal record before the mutation is submitted), and the
// record itself materialises inside the shard's ordered apply. A store
// without this extension still works — Activate falls back to Issue
// before submitting, so the apply loop only publishes the table entry.
type SerialIssuer interface {
	// NextSerial allocates a serial without creating a record.
	NextSerial() uint64
	// IssueAt creates the record under a serial from NextSerial.
	IssueAt(serial uint64, subject, holder string)
}

// memRecord is the resident form of one credential record: three interned
// string handles plus a packed flag byte, stored by value in the shard
// map. Compared with the pre-capacity layout (a heap-allocated
// *RecordStatus per record) this removes one pointer, one heap object and
// its allocator slack per resident record, and — because subject, holder
// and revocation reason are interned — the string contents are shared
// across the millions of records that spell the same role or reason.
// Existence is map membership; the wire-facing RecordStatus is
// materialised lazily on Status reads.
type memRecord struct {
	subject string
	holder  string
	reason  string
	flags   uint8
}

const recRevoked uint8 = 1 << 0

func (r memRecord) status() RecordStatus {
	return RecordStatus{
		Exists:  true,
		Revoked: r.flags&recRevoked != 0,
		Holder:  r.holder,
		Subject: r.subject,
		Reason:  r.reason,
	}
}

// memRecords is the default in-memory RecordStore. Serial allocation is a
// single atomic, and the record table is sharded by serial so local
// validations (Status reads on the Invoke path) do not serialise behind
// issues and revocations.
type memRecords struct {
	next   atomic.Uint64
	shards [crShards]recordShard
}

type recordShard struct {
	mu      sync.RWMutex
	records map[uint64]memRecord
}

var _ RecordStore = (*memRecords)(nil)

func newMemRecords() *memRecords {
	m := &memRecords{}
	for i := range m.shards {
		m.shards[i].records = make(map[uint64]memRecord)
	}
	return m
}

func (m *memRecords) shard(serial uint64) *recordShard {
	return &m.shards[serial%crShards]
}

func (m *memRecords) Issue(subject, holder string) (uint64, error) {
	serial := m.next.Add(1)
	m.IssueAt(serial, subject, holder)
	return serial, nil
}

// NextSerial implements SerialIssuer.
func (m *memRecords) NextSerial() uint64 { return m.next.Add(1) }

// IssueAt implements SerialIssuer.
func (m *memRecords) IssueAt(serial uint64, subject, holder string) {
	sh := m.shard(serial)
	sh.mu.Lock()
	// Subjects (ground role keys) come from a small vocabulary and are
	// interned; holders are per-session principal ids — high-cardinality
	// and short-lived, so interning them would grow the canonical table
	// without bound. They stay as plain strings (sharing the caller's
	// copy).
	sh.records[serial] = memRecord{
		subject: names.InternString(subject),
		holder:  holder,
	}
	sh.mu.Unlock()
}

func (m *memRecords) Revoke(serial uint64, reason string) (bool, error) {
	sh := m.shard(serial)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.records[serial]
	if !ok || rec.flags&recRevoked != 0 {
		return false, nil
	}
	rec.flags |= recRevoked
	// Revocation reasons come from a small vocabulary (logout, cascade,
	// explicit deactivation, …); interning keeps a mass revocation from
	// retaining a copy per record.
	rec.reason = names.InternString(reason)
	sh.records[serial] = rec
	return true, nil
}

func (m *memRecords) Status(serial uint64) (RecordStatus, error) {
	sh := m.shard(serial)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.records[serial]
	if !ok {
		return RecordStatus{}, nil
	}
	return rec.status(), nil
}
