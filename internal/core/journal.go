package core

import (
	"fmt"

	"repro/internal/cert"
	"repro/internal/durable"
	"repro/internal/names"
	"repro/internal/sign"
)

// Journal receives the engine's durable-state mutations — every
// credential-record and appointment issue and revocation and every key
// install — so a journal implementation (internal/durable) can replay
// them after a crash. A service hands over each mutation batch as one
// contiguous record group, after the in-memory mutation has been applied
// and before its events are published, in publish order. When wait is
// true (see mustWait) the call must not return before the whole group is
// durable. internal/durable.Log implements it.
type Journal interface {
	AppendGroup(recs []durable.Record, wait bool) error
}

// ExportKeys returns the service's retained signing secrets (oldest
// first) and the retention window, for journaling. Whoever holds the
// export holds the ability to forge this service's certificates; it goes
// to the journal and nowhere else.
func (s *Service) ExportKeys() ([]sign.Secret, int) { return s.ring.Export() }

// RestoreCR re-creates a credential record from the journal during
// recovery, before the service starts answering validation callbacks.
// Restored records carry validation continuity only: pre-crash RMCs keep
// answering valid (or revoked) by callback, but no membership monitoring
// is re-established — sessions are deliberately ephemeral (Sect. 4: an
// RMC is session-scoped, and the session did not survive the crash).
// Live restored records are indexed by holder so EndSession (logout) and
// Deactivate can still revoke them.
func (s *Service) RestoreCR(serial uint64, subject, holder string, revoked bool, reason string) error {
	if err := s.records.RestoreRecord(serial, recordStatus{
		Exists:  true,
		Revoked: revoked,
		Subject: subject,
		Holder:  holder,
		Reason:  reason,
	}); err != nil {
		return err
	}
	if !revoked {
		s.restoredMu.Lock()
		if s.restoredCRs == nil {
			s.restoredCRs = make(map[string][]uint64)
		}
		s.restoredCRs[holder] = append(s.restoredCRs[holder], serial)
		s.restoredMu.Unlock()
	}
	return nil
}

// RestoreAppointment re-installs an issued appointment from the journal
// during recovery: the certificate validates by callback again (or stays
// revoked), and the serial allocator advances past it so new appointments
// never collide with restored ones.
func (s *Service) RestoreAppointment(a cert.AppointmentCertificate, revoked bool) {
	s.apptMu.Lock()
	defer s.apptMu.Unlock()
	s.appts[a.Serial] = &apptRecord{serial: a.Serial, appt: a, revoked: revoked}
	if a.Serial > s.nextApptSerial {
		s.nextApptSerial = a.Serial
	}
}

// RestoreRecord re-creates a record under its original serial during
// crash recovery and advances the allocator past it.
func (m *memRecords) RestoreRecord(serial uint64, st recordStatus) error {
	if serial == 0 {
		return fmt.Errorf("restore record: serial 0")
	}
	rec := memRecord{
		subject: names.InternString(st.Subject),
		holder:  names.InternString(st.Holder),
		reason:  names.InternString(st.Reason),
	}
	if st.Revoked {
		rec.flags |= recRevoked
	}
	sh := m.shard(serial)
	sh.mu.Lock()
	sh.records[serial] = rec
	sh.mu.Unlock()
	// Advance the allocator so future issues never reuse a restored
	// serial.
	for {
		cur := m.next.Load()
		if cur >= serial || m.next.CompareAndSwap(cur, serial) {
			return nil
		}
	}
}
