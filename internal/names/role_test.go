package names

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRoleNameValidation(t *testing.T) {
	tests := []struct {
		name        string
		service, rn string
		arity       int
		wantErr     bool
	}{
		{"valid", "hospital", "treating_doctor", 2, false},
		{"valid zero arity", "login", "logged_in_user", 0, false},
		{"empty service", "", "r", 0, true},
		{"empty name", "s", "", 0, true},
		{"negative arity", "s", "r", -1, true},
		{"dot in service", "a.b", "r", 0, true},
		{"paren in name", "s", "r(x)", 0, true},
		{"space in name", "s", "r x", 0, true},
		{"slash in name", "s", "r/2", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewRoleName(tt.service, tt.rn, tt.arity)
			if (err != nil) != tt.wantErr {
				t.Errorf("err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRoleNameRoundTrip(t *testing.T) {
	rn := MustRoleName("hospital", "treating_doctor", 2)
	s := rn.String()
	if s != "hospital.treating_doctor/2" {
		t.Fatalf("String = %q", s)
	}
	back, err := ParseRoleName(s)
	if err != nil {
		t.Fatalf("ParseRoleName: %v", err)
	}
	if back != rn {
		t.Errorf("round trip: got %v want %v", back, rn)
	}
}

func TestParseRoleNameErrors(t *testing.T) {
	for _, bad := range []string{"", "noslash", "a.b/", ".b/2", "a./2", "a/2", "a.b/x"} {
		if _, err := ParseRoleName(bad); err == nil {
			t.Errorf("ParseRoleName(%q) succeeded, want error", bad)
		}
	}
}

func TestMustRoleNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRoleName did not panic on invalid input")
		}
	}()
	MustRoleName("", "", 0)
}

func TestNewRoleArity(t *testing.T) {
	rn := MustRoleName("h", "doc", 2)
	if _, err := NewRole(rn, Atom("d1")); err == nil {
		t.Error("arity mismatch accepted")
	}
	r, err := NewRole(rn, Atom("d1"), Atom("p1"))
	if err != nil {
		t.Fatalf("NewRole: %v", err)
	}
	if !r.IsGround() {
		t.Error("ground role reported non-ground")
	}
}

func TestNewRoleCopiesParams(t *testing.T) {
	rn := MustRoleName("h", "doc", 1)
	params := []Term{Atom("d1")}
	r, err := NewRole(rn, params...)
	if err != nil {
		t.Fatal(err)
	}
	params[0] = Atom("mutated")
	if r.Params[0] != Atom("d1") {
		t.Error("NewRole aliased caller slice")
	}
}

func TestRoleUnify(t *testing.T) {
	rn := MustRoleName("h", "doc", 2)
	pattern := MustRole(rn, Var("D"), Var("P"))
	ground := MustRole(rn, Atom("d9"), Int(42))
	s, ok := pattern.Unify(ground, NewSubstitution())
	if !ok {
		t.Fatal("unification failed")
	}
	if got := s.Apply(Var("D")); got != Atom("d9") {
		t.Errorf("D = %v", got)
	}
	if got := s.Apply(Var("P")); got != Int(42) {
		t.Errorf("P = %v", got)
	}
}

func TestRoleUnifyNameMismatch(t *testing.T) {
	a := MustRole(MustRoleName("h", "doc", 0))
	b := MustRole(MustRoleName("clinic", "doc", 0))
	if _, ok := a.Unify(b, NewSubstitution()); ok {
		t.Error("roles from different services unified")
	}
}

func TestRoleApplyAndString(t *testing.T) {
	rn := MustRoleName("h", "doc", 2)
	r := MustRole(rn, Var("D"), Str("p 1"))
	s := Substitution{"D": Atom("d3")}
	applied := r.Apply(s)
	if !applied.IsGround() {
		t.Error("applied role should be ground")
	}
	want := `h.doc(d3, "p 1")`
	if applied.String() != want {
		t.Errorf("String = %q want %q", applied.String(), want)
	}
	zero := MustRole(MustRoleName("login", "user", 0))
	if zero.String() != "login.user" {
		t.Errorf("zero-arity String = %q", zero.String())
	}
}

// Property: every valid role name round-trips through String/Parse.
func TestQuickRoleNameRoundTrip(t *testing.T) {
	f := func(svcIdx, nameIdx, arity uint8) bool {
		services := []string{"a", "hospital", "national_ehr", "x1"}
		rolenames := []string{"r", "treating_doctor", "logged_in_user"}
		rn := MustRoleName(services[int(svcIdx)%len(services)],
			rolenames[int(nameIdx)%len(rolenames)], int(arity%16))
		back, err := ParseRoleName(rn.String())
		return err == nil && back == rn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoleKeyDistinguishesParams(t *testing.T) {
	rn := MustRoleName("h", "doc", 1)
	a := MustRole(rn, Atom("x")).Key()
	b := MustRole(rn, Atom("y")).Key()
	if a == b {
		t.Error("keys for different parameters collide")
	}
	if !strings.Contains(a, "h.doc") {
		t.Errorf("key %q missing qualified name", a)
	}
}

// ParseRoleName parses the service.name/arity form produced by
// RoleName.String; the round-trip tests hold String to it.
func ParseRoleName(s string) (RoleName, error) {
	dot := strings.IndexByte(s, '.')
	slash := strings.LastIndexByte(s, '/')
	if dot <= 0 || slash <= dot+1 || slash == len(s)-1 {
		return RoleName{}, fmt.Errorf("%w: %q", ErrBadRoleName, s)
	}
	var arity int
	if _, err := fmt.Sscanf(s[slash+1:], "%d", &arity); err != nil {
		return RoleName{}, fmt.Errorf("%w: bad arity in %q", ErrBadRoleName, s)
	}
	return NewRoleName(s[:dot], s[dot+1:slash], arity)
}
