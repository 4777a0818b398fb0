package audit

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/policy"
)

func authority(t *testing.T) *Authority {
	t.Helper()
	a, err := NewAuthority("civ1", clock.NewSimulated(time.Unix(0, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestIssueValidate(t *testing.T) {
	a := authority(t)
	c := a.Issue("client1", "svc1", "read", OutcomeFulfilled)
	if err := a.Validate(c); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.Authority != "civ1" || c.Serial == 0 {
		t.Errorf("cert = %+v", c)
	}
}

func TestValidateUnknownSerial(t *testing.T) {
	a := authority(t)
	c := Certificate{Authority: "civ1", Serial: 99}
	if err := a.Validate(c); !errors.Is(err, ErrUnknownAudit) {
		t.Errorf("err = %v", err)
	}
}

func TestValidateTamperedOutcome(t *testing.T) {
	a := authority(t)
	c := a.Issue("client1", "svc1", "read", OutcomeClientDefault)
	// The client launders its default into a success.
	c.Outcome = OutcomeFulfilled
	if err := a.Validate(c); err == nil {
		t.Error("laundered outcome validated")
	}
}

func TestValidateTamperedParties(t *testing.T) {
	a := authority(t)
	c := a.Issue("client1", "svc1", "read", OutcomeFulfilled)
	forClient := c
	forClient.Client = "someone_else"
	if err := a.Validate(forClient); err == nil {
		t.Error("reassigned client validated")
	}
	forService := c
	forService.Service = "other_svc"
	if err := a.Validate(forService); err == nil {
		t.Error("reassigned service validated")
	}
}

func TestRepudiation(t *testing.T) {
	a := authority(t)
	c := a.Issue("client1", "svc1", "read", OutcomeFulfilled)
	a.SetRepudiating(true)
	if err := a.Validate(c); !errors.Is(err, ErrRepudiated) {
		t.Errorf("err = %v", err)
	}
	a.SetRepudiating(false)
	if err := a.Validate(c); err != nil {
		t.Errorf("post-repudiation Validate: %v", err)
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		o    Outcome
		want string
	}{
		{OutcomeFulfilled, "fulfilled"},
		{OutcomeClientDefault, "client-default"},
		{OutcomeServiceDefault, "service-default"},
		{Outcome(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("%d.String() = %q", tt.o, got)
		}
	}
}

// Certificates are exchanged between strangers (Sect. 6: "such
// certificates might be exchanged and validated before a principal uses a
// previously unknown service"); the JSON form must survive the trip.
func TestCertificateWireRoundTrip(t *testing.T) {
	a := authority(t)
	c := a.Issue("client1", "svc1", "read", OutcomeFulfilled)
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Certificate
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(back); err != nil {
		t.Errorf("round-tripped certificate failed validation: %v", err)
	}
	if err := json.Unmarshal([]byte("{bad"), &back); err == nil {
		t.Error("garbage decoded")
	}
}

func TestLedgerRecordsBothParties(t *testing.T) {
	a := authority(t)
	l := NewLedger()
	c := a.Issue("client1", "svc1", "read", OutcomeFulfilled)
	l.Record(c)
	if got := l.HistoryOf("client1"); len(got) != 1 {
		t.Errorf("client history = %v", got)
	}
	if got := l.HistoryOf("svc1"); len(got) != 1 {
		t.Errorf("service history = %v", got)
	}
	if got := l.HistoryOf("stranger"); len(got) != 0 {
		t.Errorf("stranger history = %v", got)
	}
}

func TestAttachToCertifiesInvocations(t *testing.T) {
	// Invariant I10: every authorized invocation leaves exactly one
	// audit record.
	broker := event.NewBroker()
	defer broker.Close()
	clk := clock.NewSimulated(time.Unix(0, 0))
	svc, err := core.NewService(core.Config{
		Name: "ehr",
		Policy: policy.MustParse(`ehr.reader <- env ok.
auth read <- ehr.reader.`),
		Broker: broker,
		Clock:  clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	a, err := NewAuthority("civ_ehr", clk)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger()
	AttachTo(svc, a, l, nil)

	sess, err := core.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	rmc, err := svc.Activate(sess.PrincipalID(),
		names.MustRole(names.MustRoleName("ehr", "reader", 0)), core.Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	for i := 0; i < 3; i++ {
		if _, err := svc.Invoke(sess.PrincipalID(), "read", nil, sess.Credentials()); err != nil {
			t.Fatal(err)
		}
	}
	hist := l.HistoryOf(sess.PrincipalID())
	if len(hist) != 3 {
		t.Fatalf("history = %d records, want 3", len(hist))
	}
	for _, c := range hist {
		if err := a.Validate(c); err != nil {
			t.Errorf("Validate: %v", err)
		}
		if c.Outcome != OutcomeFulfilled {
			t.Errorf("outcome = %v", c.Outcome)
		}
	}
	// Denied invocations leave no record.
	stranger, err := core.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(stranger.PrincipalID(), "read", nil, core.Presented{}); err == nil {
		t.Fatal("unauthenticated invoke succeeded")
	}
	if got := l.HistoryOf(stranger.PrincipalID()); len(got) != 0 {
		t.Errorf("denied invocation left %d records", len(got))
	}
}

func TestAttachToCustomOutcome(t *testing.T) {
	broker := event.NewBroker()
	defer broker.Close()
	clk := clock.NewSimulated(time.Unix(0, 0))
	svc, err := core.NewService(core.Config{
		Name: "s",
		Policy: policy.MustParse(`s.u <- env ok.
auth m <- s.u.`),
		Broker: broker,
		Clock:  clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	a, err := NewAuthority("civ", clk)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLedger()
	AttachTo(svc, a, l, func(core.InvokeRecord) Outcome { return OutcomeServiceDefault })

	sess, err := core.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	rmc, err := svc.Activate(sess.PrincipalID(),
		names.MustRole(names.MustRoleName("s", "u", 0)), core.Presented{})
	if err != nil {
		t.Fatal(err)
	}
	sess.AddRMC(rmc)
	if _, err := svc.Invoke(sess.PrincipalID(), "m", nil, sess.Credentials()); err != nil {
		t.Fatal(err)
	}
	hist := l.HistoryOf(sess.PrincipalID())
	if len(hist) != 1 || hist[0].Outcome != OutcomeServiceDefault {
		t.Errorf("history = %+v", hist)
	}
}
