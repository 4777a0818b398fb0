package core

import (
	"errors"
	"testing"

	"repro/internal/event"
)

// TestReadOnlyHandlerRefusesWrites pins the follower-replica contract: a
// read-only service's wire handler refuses every mutating method with
// ErrReadOnly but keeps answering validation, and the non-wire mutation
// APIs (what the replication applier uses) still work.
func TestReadOnlyHandlerRefusesWrites(t *testing.T) {
	b := event.NewBroker()
	defer b.Close()
	svc, err := NewService(Config{
		Name:     "login",
		Policy:   mustPolicy(`login.user <- env ok.`),
		Broker:   b,
		ReadOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	alwaysTrue(svc, "ok")

	sess, err := NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Direct API mutation (the replication applier's path) is allowed.
	rmc, err := svc.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatalf("direct Activate on read-only service: %v", err)
	}

	h := svc.Handler()

	// Validation still serves.
	out, err := h("validate_rmc", rmcItem(rmc, sess.PrincipalID()).encodeBinary())
	if err != nil {
		t.Fatalf("validate_rmc: %v", err)
	}
	if resp, err := decodeValidateRespBinary(out); err != nil || !resp.Valid {
		t.Fatalf("validate_rmc verdict = %+v err=%v, want valid", resp, err)
	}

	// Every wire mutation is refused.
	for _, method := range []string{"activate", "invoke", "appoint", "revoke", "end_session"} {
		if _, err := h(method, []byte(`{}`)); !errors.Is(err, ErrReadOnly) {
			t.Errorf("%s on read-only service: err=%v, want ErrReadOnly", method, err)
		}
	}
}
