package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/names"
)

// recordStatus is one credential record's state, as read from memRecords.
type recordStatus struct {
	Exists  bool
	Revoked bool
	Holder  string
	Subject string
	Reason  string
}

// memRecord is the resident form of one credential record: three interned
// string handles plus a packed flag byte, stored by value in the shard
// map. Compared with the pre-capacity layout (a heap-allocated
// *recordStatus per record) this removes one pointer, one heap object and
// its allocator slack per resident record, and — because subject, holder
// and revocation reason are interned — the string contents are shared
// across the millions of records that spell the same role or reason.
// Existence is map membership; the recordStatus view is materialised
// lazily on Status reads.
type memRecord struct {
	subject string
	holder  string
	reason  string
	flags   uint8
}

const recRevoked uint8 = 1 << 0

func (r memRecord) status() recordStatus {
	return recordStatus{
		Exists:  true,
		Revoked: r.flags&recRevoked != 0,
		Holder:  r.holder,
		Subject: r.subject,
		Reason:  r.reason,
	}
}

// memRecords is the service's credential-record table: each service
// issues and validates its own certificates, "as is possible in the
// architecture" (Sect. 4). Serial allocation is a single atomic, and the
// table is sharded by serial so local validations (Status reads on the
// Invoke path) do not serialise behind issues and revocations.
type memRecords struct {
	next   atomic.Uint64
	shards [crShards]recordShard
}

type recordShard struct {
	mu      sync.RWMutex
	records map[uint64]memRecord
}

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

// NextSerial allocates a serial without creating a record: Activate
// signs it into the RMC and names the journal record with it before the
// shard's ordered apply creates the record (IssueAt).
func (m *memRecords) NextSerial() uint64 { return m.next.Add(1) }

// IssueAt creates the record under a serial from NextSerial.
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

// Revoke invalidates a serial; it reports whether the record was live
// (false means already revoked or unknown: callers treat Revoke as
// idempotent).
func (m *memRecords) Revoke(serial uint64, reason string) bool {
	sh := m.shard(serial)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.records[serial]
	if !ok || rec.flags&recRevoked != 0 {
		return false
	}
	rec.flags |= recRevoked
	// Revocation reasons come from a small vocabulary (logout, cascade,
	// explicit deactivation, …); interning keeps a mass revocation from
	// retaining a copy per record.
	rec.reason = names.InternString(reason)
	sh.records[serial] = rec
	return true
}

// Status reads a record's state.
func (m *memRecords) Status(serial uint64) recordStatus {
	sh := m.shard(serial)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.records[serial]
	if !ok {
		return recordStatus{}
	}
	return rec.status()
}
