package baseline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestACLGrantCheckRevoke(t *testing.T) {
	s := NewACLService()
	s.Grant("record_p1", "dr_a", RightRead)
	if !s.Check("record_p1", "dr_a", RightRead) {
		t.Error("granted access denied")
	}
	if s.Check("record_p1", "dr_a", Right("write")) {
		t.Error("ungranted right allowed")
	}
	if s.Check("record_p2", "dr_a", RightRead) {
		t.Error("access to other object allowed")
	}
	if !s.Revoke("record_p1", "dr_a", RightRead) {
		t.Error("revoke of existing entry failed")
	}
	if s.Revoke("record_p1", "dr_a", RightRead) {
		t.Error("double revoke succeeded")
	}
	if s.Check("record_p1", "dr_a", RightRead) {
		t.Error("revoked access allowed")
	}
}

func TestACLEntriesCountManagementBurden(t *testing.T) {
	s := NewACLService()
	// 10 doctors x 50 patients: the ACL burden is the full product.
	for d := 0; d < 10; d++ {
		for p := 0; p < 50; p++ {
			s.Grant(fmt.Sprintf("record_p%d", p), fmt.Sprintf("dr_%d", d), RightRead)
		}
	}
	if s.Entries() != 500 {
		t.Errorf("Entries = %d, want 500", s.Entries())
	}
	// Idempotent grant does not inflate the count.
	s.Grant("record_p0", "dr_0", RightRead)
	if s.Entries() != 500 {
		t.Errorf("Entries after duplicate grant = %d", s.Entries())
	}
	// A doctor leaving means touching one entry per object they held.
	if n := s.RevokePrincipal("dr_3"); n != 50 {
		t.Errorf("RevokePrincipal touched %d entries, want 50", n)
	}
	if s.Entries() != 450 {
		t.Errorf("Entries = %d, want 450", s.Entries())
	}
}

func TestRBAC0CheckThroughRole(t *testing.T) {
	s := NewRBAC0Service()
	s.AssignUser("dr_a", "doctor")
	s.AssignPermission("doctor", "prescribe")
	if !s.Check("dr_a", "prescribe") {
		t.Error("role permission denied")
	}
	if s.Check("dr_b", "prescribe") {
		t.Error("unassigned user allowed")
	}
	if !s.DeassignUser("dr_a", "doctor") {
		t.Error("deassign failed")
	}
	if s.DeassignUser("dr_a", "doctor") {
		t.Error("double deassign succeeded")
	}
	if s.Check("dr_a", "prescribe") {
		t.Error("deassigned user still allowed")
	}
}

func TestRBAC0RoleExplosion(t *testing.T) {
	// Per-patient access control forces one role per patient in
	// unparametrised RBAC, versus OASIS's single parametrised rule.
	registrations := make(map[string][]string)
	const doctors, patientsPerDoctor = 20, 30
	patientSet := make(map[string]bool)
	for d := 0; d < doctors; d++ {
		doctor := fmt.Sprintf("dr_%d", d)
		for p := 0; p < patientsPerDoctor; p++ {
			patient := fmt.Sprintf("p_%d_%d", d, p)
			registrations[doctor] = append(registrations[doctor], patient)
			patientSet[patient] = true
		}
	}
	s := BuildPatientAccess(registrations)
	if s.Roles() != len(patientSet) {
		t.Errorf("Roles = %d, want one per patient = %d", s.Roles(), len(patientSet))
	}
	if s.Assignments() != doctors*patientsPerDoctor {
		t.Errorf("Assignments = %d, want %d", s.Assignments(), doctors*patientsPerDoctor)
	}
	if !s.Check("dr_0", "read_record_p_0_0") {
		t.Error("registered doctor denied")
	}
	if s.Check("dr_0", "read_record_p_1_0") {
		t.Error("unregistered doctor allowed")
	}
}

func TestDelegationBasics(t *testing.T) {
	s := NewDelegationService()
	s.AddMember("doctor", "dr_a")
	if err := s.Delegate("doctor", "dr_a", "locum_1"); err != nil {
		t.Fatal(err)
	}
	if !s.Holds("doctor", "locum_1") {
		t.Error("delegatee lacks role")
	}
	// A non-member cannot delegate.
	if err := s.Delegate("doctor", "stranger", "x"); !errors.Is(err, ErrNotMember) {
		t.Errorf("err = %v", err)
	}
	// But a delegatee can re-delegate (chains).
	if err := s.Delegate("doctor", "locum_1", "locum_2"); err != nil {
		t.Fatal(err)
	}
	if !s.Holds("doctor", "locum_2") {
		t.Error("chained delegatee lacks role")
	}
}

func TestDelegationCascadeRevocation(t *testing.T) {
	s := NewDelegationService()
	s.AddMember("doctor", "dr_a")
	if err := s.Delegate("doctor", "dr_a", "l1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delegate("doctor", "l1", "l2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delegate("doctor", "l2", "l3"); err != nil {
		t.Fatal(err)
	}
	removed := s.RevokeMember("doctor", "dr_a", true)
	if removed != 4 { // dr_a + l1 + l2 + l3
		t.Errorf("cascade removed %d, want 4", removed)
	}
	for _, u := range []string{"dr_a", "l1", "l2", "l3"} {
		if s.Holds("doctor", u) {
			t.Errorf("%s still holds role after cascade", u)
		}
	}
}

func TestDelegationDanglingWithoutCascade(t *testing.T) {
	// The hazard OASIS's appointment design avoids: revoking the
	// delegator without cascade leaves delegatees privileged.
	s := NewDelegationService()
	s.AddMember("doctor", "dr_a")
	if err := s.Delegate("doctor", "dr_a", "l1"); err != nil {
		t.Fatal(err)
	}
	s.RevokeMember("doctor", "dr_a", false)
	if !s.Holds("doctor", "l1") {
		t.Error("expected dangling delegation without cascade")
	}
	if s.Delegations("doctor") != 1 {
		t.Errorf("Delegations = %d", s.Delegations("doctor"))
	}
	if n := s.RevokeDelegation("doctor", "l1", false); n != 1 {
		t.Errorf("RevokeDelegation removed %d", n)
	}
	if n := s.RevokeDelegation("doctor", "l1", false); n != 0 {
		t.Errorf("second RevokeDelegation removed %d", n)
	}
	if n := s.RevokeDelegation("nosuchrole", "l1", false); n != 0 {
		t.Errorf("RevokeDelegation on unknown role removed %d", n)
	}
}

func TestPollingLatencyBoundedByInterval(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	p := NewPollingRevoker(clk, 10*time.Second)
	p.Watch("cert1")

	// Revocation happens 3s after the last poll tick.
	clk.Advance(3 * time.Second)
	p.Revoke("cert1")
	if !p.BelievedValid("cert1") {
		t.Fatal("poller noticed revocation before polling")
	}
	// The next tick is at t=10s: staleness is 7s.
	clk.Advance(7 * time.Second)
	noticed := p.Tick()
	if len(noticed) != 1 || noticed[0] != "cert1" {
		t.Fatalf("Tick = %v", noticed)
	}
	lat, ok := p.NoticeLatency("cert1")
	if !ok || lat != 7*time.Second {
		t.Errorf("latency = (%v,%v), want 7s", lat, ok)
	}
	if p.BelievedValid("cert1") {
		t.Error("poller still believes revoked cert valid")
	}
}

func TestPollingTrafficGrowsWithCertsAndTime(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	p := NewPollingRevoker(clk, time.Second)
	for i := 0; i < 100; i++ {
		p.Watch(fmt.Sprintf("cert%d", i))
	}
	clk.Advance(60 * time.Second)
	p.Tick()
	// 60 rounds x 100 certificates, nothing revoked: pure overhead.
	if p.Polls() != 6000 {
		t.Errorf("Polls = %d, want 6000", p.Polls())
	}
}

func TestPollingNoticeLatencyUnknownKey(t *testing.T) {
	clk := clock.NewSimulated(time.Unix(0, 0))
	p := NewPollingRevoker(clk, time.Second)
	if _, ok := p.NoticeLatency("missing"); ok {
		t.Error("latency for unknown key")
	}
	p.Watch("c")
	p.Revoke("c")
	if _, ok := p.NoticeLatency("c"); ok {
		t.Error("latency before noticing")
	}
}
