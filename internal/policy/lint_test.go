package policy

import (
	"strings"
	"testing"
)

func checkerWith(t *testing.T, services map[string]struct {
	pol   string
	preds []string
}) []Issue {
	t.Helper()
	c := NewChecker()
	for name, s := range services {
		c.AddService(name, MustParse(s.pol), s.preds)
	}
	return c.Check()
}

func hasIssue(issues []Issue, severity, substr string) bool {
	for _, i := range issues {
		if i.Severity == severity && strings.Contains(i.Msg, substr) {
			return true
		}
	}
	return false
}

func TestCheckerCleanFederation(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"login": {`login.user <- env password_ok.`, []string{"password_ok"}},
		"admin": {`admin.officer <- login.user.
auth appoint_badge(K) <- admin.officer.`, nil},
		"site": {`site.contractor <- appt admin.badge(K), admin.officer keep [1].`, nil},
	})
	for _, i := range issues {
		if i.Severity == "error" {
			t.Errorf("unexpected error: %s", i)
		}
	}
}

func TestCheckerUndefinedPrerequisiteRole(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"b": {`b.r <- a.ghost keep [1].`, nil},
	})
	if !hasIssue(issues, "error", "not defined by any registered service") {
		t.Errorf("missing undefined-role error: %v", issues)
	}
}

func TestCheckerUnregisteredPredicate(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"s": {`s.r <- env mystery.`, nil},
	})
	if !hasIssue(issues, "error", `environmental predicate "mystery"`) {
		t.Errorf("missing predicate error: %v", issues)
	}
	// Builtins never trigger it.
	issues = checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"s": {`s.r <- env eq(1, 1).`, nil},
	})
	if hasIssue(issues, "error", "environmental predicate") {
		t.Errorf("builtin flagged: %v", issues)
	}
}

func TestCheckerAppointmentWithoutAppointer(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"admin": {`admin.officer <- env ok.`, []string{"ok"}},
		"site":  {`site.c <- appt admin.badge(K).`, nil},
	})
	if !hasIssue(issues, "error", "no appointer rule auth appoint_badge") {
		t.Errorf("missing appointer error: %v", issues)
	}
}

func TestCheckerExternalIssuerIsWarning(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"site": {`site.c <- appt foreign_org.badge(K).`, nil},
	})
	if !hasIssue(issues, "warning", "not a registered service") {
		t.Errorf("missing external-issuer warning: %v", issues)
	}
	if len(Errors(issues)) != 0 {
		t.Errorf("external issuer should not be an error: %v", issues)
	}
}

func TestCheckerExternalServiceDowngradesToWarning(t *testing.T) {
	c := NewChecker()
	c.AddService("b", MustParse(`b.r <- a.remote_role, appt a.remote_kind(K) keep [1].`), nil)
	c.AddExternal("a")
	issues := c.Check()
	if len(Errors(issues)) != 0 {
		t.Errorf("external references reported as errors: %v", issues)
	}
	warnings := 0
	for _, i := range issues {
		if i.Severity == "warning" && strings.Contains(i.Msg, "external service") {
			warnings++
		}
	}
	if warnings != 2 {
		t.Errorf("got %d external warnings, want 2: %v", warnings, issues)
	}
}

func TestCheckerDeadRoleWarning(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"s": {`s.orphan <- env ok.`, []string{"ok"}},
	})
	if !hasIssue(issues, "warning", "dead role") {
		t.Errorf("missing dead-role warning: %v", issues)
	}
}

func TestCheckerUnconsumedAppointmentKind(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"admin": {`admin.officer <- env ok.
auth appoint_unused_kind(K) <- admin.officer.`, []string{"ok"}},
		"user_of_officer": {`user_of_officer.x <- admin.officer.`, nil},
	})
	if !hasIssue(issues, "warning", `appointment kind "unused_kind"`) {
		t.Errorf("missing unconsumed-kind warning: %v", issues)
	}
}

func TestCheckerAuthRuleBodiesChecked(t *testing.T) {
	issues := checkerWith(t, map[string]struct {
		pol   string
		preds []string
	}{
		"s": {`auth read(F) <- s.ghost_role(F).`, nil},
	})
	if !hasIssue(issues, "error", "not defined") {
		t.Errorf("auth body not checked: %v", issues)
	}
}

func TestErrorsFilter(t *testing.T) {
	issues := []Issue{
		{Severity: "warning", Msg: "w"},
		{Severity: "error", Msg: "e"},
	}
	errs := Errors(issues)
	if len(errs) != 1 || errs[0].Msg != "e" {
		t.Errorf("Errors = %v", errs)
	}
}

func TestIssueString(t *testing.T) {
	i := Issue{Service: "s", Rule: "s.r", Severity: "error", Msg: "boom"}
	if got := i.String(); !strings.Contains(got, "s.r") || !strings.Contains(got, "boom") {
		t.Errorf("String = %q", got)
	}
}

func TestCheckerDeterministicOrder(t *testing.T) {
	run := func() string {
		issues := checkerWith(t, map[string]struct {
			pol   string
			preds []string
		}{
			"zz": {`zz.r <- a.ghost, env missing.`, nil},
			"aa": {`aa.r <- b.ghost, env missing.`, nil},
		})
		var b strings.Builder
		for _, i := range issues {
			b.WriteString(i.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if run() != first {
			t.Fatal("issue order is not deterministic")
		}
	}
}
