package core

import (
	"sync"
	"testing"

	"repro/internal/durable"
)

// captureJournal records every record a service journals, with the
// durability wait of the group it arrived in.
type captureJournal struct {
	mu   sync.Mutex
	recs []journaled
}

type journaled struct {
	op     durable.Op
	serial uint64
	wait   bool
}

func (c *captureJournal) AppendGroup(recs []durable.Record, wait bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		c.recs = append(c.recs, journaled{op: r.Op, serial: r.Serial, wait: wait})
	}
	return nil
}

// serials lists the serials journaled under op, in journal order.
func (c *captureJournal) serials(op durable.Op) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for _, r := range c.recs {
		if r.op == op {
			out = append(out, r.serial)
		}
	}
	return out
}

// waitOf reports the durability wait the record (op, serial) was
// journaled with; ok is false when it was never journaled.
func (c *captureJournal) waitOf(op durable.Op, serial uint64) (wait, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recs {
		if r.op == op && r.serial == serial {
			return r.wait, true
		}
	}
	return false, false
}

// A journal-restored credential record has no session state (crs entry),
// but logout must still be able to revoke it — otherwise a pre-crash
// certificate would stay valid forever after restart with no revocation
// path. Regression test for the restored-serials index behind EndSession.
func TestEndSessionRevokesRestoredRecords(t *testing.T) {
	w := newWorld(t)
	j := &captureJournal{}
	svc := w.service("login", `login.user(U) <- env ok(U).`, func(c *Config) { c.Journal = j })

	if err := svc.RestoreCR(7, "login.user(alice)", "alice", false, ""); err != nil {
		t.Fatal(err)
	}
	if err := svc.RestoreCR(9, "login.user(alice)", "alice", true, "logout"); err != nil {
		t.Fatal(err)
	}
	if valid, exists := svc.CRStatus(7); !valid || !exists {
		t.Fatalf("restored record 7: valid=%v exists=%v, want live", valid, exists)
	}

	if n := svc.EndSession("alice"); n != 1 {
		t.Fatalf("EndSession deactivated %d records, want 1 (the live restored one)", n)
	}
	if valid, exists := svc.CRStatus(7); valid || !exists {
		t.Fatalf("after logout, record 7: valid=%v exists=%v, want revoked", valid, exists)
	}
	if got := j.serials(durable.OpCRRevoke); len(got) != 1 || got[0] != 7 {
		t.Fatalf("journal saw revocations %v, want [7]", got)
	}

	// Idempotent: the drained index must not resurrect the serials.
	if n := svc.EndSession("alice"); n != 0 {
		t.Fatalf("second EndSession deactivated %d records, want 0", n)
	}
}
