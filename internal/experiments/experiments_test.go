package experiments

import (
	"testing"
	"time"

	"repro/internal/trust"
)

// These tests pin the qualitative shapes recorded in EXPERIMENTS.md: if a
// refactor breaks one of the paper's claims, they fail.

func TestFig1ShapeOneCertPerLayer(t *testing.T) {
	for _, depth := range []int{1, 3, 5} {
		row, err := RunFig1(depth, 1)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if row.CertsIssued != depth {
			t.Errorf("depth %d: certs = %d", depth, row.CertsIssued)
		}
		// Presenting the whole wallet to each deeper layer costs
		// sum_{k=1}^{depth-1} k callbacks.
		wantCallbacks := uint64(depth * (depth - 1) / 2)
		if row.Validations != wantCallbacks {
			t.Errorf("depth %d: callbacks = %d, want %d", depth, row.Validations, wantCallbacks)
		}
	}
}

func TestFig2ShapeCachingAmortisesCallback(t *testing.T) {
	const n = 200
	callback, err := RunFig2(n, false)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunFig2(n, true)
	if err != nil {
		t.Fatal(err)
	}
	// Role entry itself costs one callback (the guard validating the
	// login RMC); every use costs another without caching.
	if callback.Callbacks != n+1 {
		t.Errorf("callback mode: %d callbacks, want %d", callback.Callbacks, n+1)
	}
	if cached.Callbacks != 1 {
		t.Errorf("cached mode: %d callbacks, want 1", cached.Callbacks)
	}
	if cached.CacheHits < n-1 {
		t.Errorf("cached mode: %d hits, want >= %d", cached.CacheHits, n-1)
	}
	if cached.PerInvoke >= callback.PerInvoke {
		t.Errorf("caching did not reduce per-invoke latency: %v vs %v",
			cached.PerInvoke, callback.PerInvoke)
	}
}

func TestFig3ShapeAuditComplete(t *testing.T) {
	row, err := RunFig3(3, 50, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !row.AuditOK {
		t.Errorf("audit incomplete: %d records for 120 ops", row.AuditRecords)
	}
	if row.Requests+row.Appends != 120 {
		t.Errorf("ops = %d + %d", row.Requests, row.Appends)
	}
}

func TestFig4ShapeNoAttacksAccepted(t *testing.T) {
	adv, err := RunFig4Adversarial(300)
	if err != nil {
		t.Fatal(err)
	}
	if adv.TamperAccepted != 0 || adv.TheftAccepted != 0 ||
		adv.ForgeryAccepted != 0 || adv.ApptTheftAccepted != 0 {
		t.Errorf("attacks accepted: %+v", adv)
	}
}

func TestFig4ShapeCostGrowsWithParams(t *testing.T) {
	small, err := RunFig4(0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunFig4(16, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// More protected fields cannot be cheaper by a wide margin; allow
	// generous noise but catch inversions.
	if big.ValidateNs*2 < small.ValidateNs {
		t.Errorf("16-param validate (%v) implausibly cheaper than 0-param (%v)",
			big.ValidateNs, small.ValidateNs)
	}
}

func TestFig5ShapeCompleteCollapse(t *testing.T) {
	for _, shape := range []string{"chain", "star"} {
		row, err := RunFig5(50, shape)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !row.AllCollapsed {
			t.Errorf("%s: roles survived the cascade", shape)
		}
		if row.EventsDelivered != 50 {
			t.Errorf("%s: %d events, want exactly one per dependent role",
				shape, row.EventsDelivered)
		}
	}
	if _, err := RunFig5(1, "pentagram"); err == nil {
		t.Error("unknown shape accepted")
	}
	if _, err := RunFig5Target(1, "star", "trunk"); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestFig5LeafRevocationIsLocal(t *testing.T) {
	for _, shape := range []string{"chain", "star"} {
		row, err := RunFig5Target(30, shape, "leaf")
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if !row.AllCollapsed {
			t.Errorf("%s: leaf revocation damaged the wrong subtree", shape)
		}
		if row.EventsDelivered != 0 {
			// The leaf has no dependants, so its revocation event has
			// no subscribers.
			t.Errorf("%s: leaf revocation delivered %d events, want 0",
				shape, row.EventsDelivered)
		}
	}
}

func TestAuthShape(t *testing.T) {
	row, err := RunAuth(50)
	if err != nil {
		t.Fatal(err)
	}
	if !row.AllPassed {
		t.Error("honest rounds failed")
	}
	if row.WrongKeyOK != 0 {
		t.Errorf("%d wrong-key responses accepted", row.WrongKeyOK)
	}
}

func TestSect5ShapeSLAGate(t *testing.T) {
	row, err := RunSect5(25)
	if err != nil {
		t.Fatal(err)
	}
	if row.RefusedNoSLA != 25 {
		t.Errorf("refused without SLA = %d, want all 25", row.RefusedNoSLA)
	}
	if row.Activated != 25 {
		t.Errorf("activated under SLA = %d, want all 25", row.Activated)
	}
}

func TestSect6ShapeCollusionDefence(t *testing.T) {
	row, err := RunSect6(40, 0.25, 15)
	if err != nil {
		t.Fatal(err)
	}
	if row.NaiveAcceptBad != row.BadTotal {
		t.Errorf("naive policy accepted %d/%d colluders; the attack should fully succeed",
			row.NaiveAcceptBad, row.BadTotal)
	}
	if row.WaryAcceptBad != 0 {
		t.Errorf("domain-aware policy accepted %d colluders", row.WaryAcceptBad)
	}
	if row.HonestAcceptedOK != row.HonestTotal {
		t.Errorf("honest acceptance %d/%d", row.HonestAcceptedOK, row.HonestTotal)
	}
}

func TestPolicySizeShape(t *testing.T) {
	small := RunPolicySize(5, 4)
	large := RunPolicySize(50, 40)
	if small.OASISRules != large.OASISRules {
		t.Error("OASIS policy size should be constant in the population")
	}
	if large.RBAC0Roles != 50*40 {
		t.Errorf("RBAC0 roles = %d, want one per patient", large.RBAC0Roles)
	}
	if large.ACLEntries != 50*40 {
		t.Errorf("ACL entries = %d", large.ACLEntries)
	}
	if large.OASISFactRows != 50*40 {
		t.Errorf("fact rows = %d", large.OASISFactRows)
	}
}

func TestRevocationComparisonShape(t *testing.T) {
	row, err := RunRevocationComparison(50, 10*time.Second, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Polling latency is interval/2 at phase 0.5; active latency is
	// wall-clock microseconds, orders of magnitude below.
	if row.PollingLatency != 5*time.Second {
		t.Errorf("polling latency = %v, want 5s", row.PollingLatency)
	}
	if row.ActiveLatency >= time.Second {
		t.Errorf("active latency = %v, implausibly slow", row.ActiveLatency)
	}
	if row.PollMessages == 0 {
		t.Error("no poll traffic counted")
	}
	if row.ActiveEvents != 50 {
		t.Errorf("active events = %d", row.ActiveEvents)
	}
}

func TestDelegationComparisonShape(t *testing.T) {
	row := RunDelegationComparison(10)
	if row.AppointmentRevokes != 1 {
		t.Errorf("appointment revokes = %d", row.AppointmentRevokes)
	}
	if row.DelegationCascadeOps != 11 {
		t.Errorf("cascade ops = %d, want chain+root = 11", row.DelegationCascadeOps)
	}
	if row.DanglingWithoutCascade != 10 {
		t.Errorf("dangling = %d", row.DanglingWithoutCascade)
	}
}

func TestTrustThroughput(t *testing.T) {
	row, err := RunTrustThroughput(20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if row.PerDecide <= 0 {
		t.Errorf("PerDecide = %v", row.PerDecide)
	}
}

// TrustThroughputRow measures trust-decision cost for bench E8.
type TrustThroughputRow struct {
	HistoryLen int
	PerDecide  time.Duration
}

// RunTrustThroughput times Decide over a fixed history.
func RunTrustThroughput(historyLen, iters int) (TrustThroughputRow, error) {
	sim, err := trust.NewSimulation(11)
	if err != nil {
		return TrustThroughputRow{}, err
	}
	engine := trust.NewEngine(trust.DomainAwarePolicy(0.1), sim.Directory.Validate)
	hist := sim.HonestHistory("alice", historyLen, 0.9)
	start := time.Now()
	for i := 0; i < iters; i++ {
		engine.Decide("alice", hist)
	}
	return TrustThroughputRow{
		HistoryLen: historyLen,
		PerDecide:  time.Since(start) / time.Duration(iters),
	}, nil
}
