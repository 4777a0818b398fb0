package names

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Errors returned by role name parsing.
var (
	ErrBadRoleName = errors.New("malformed role name")
	ErrArity       = errors.New("wrong number of parameters for role")
)

// RoleName identifies a role within the service that defines it. OASIS has
// no global role namespace (Sect. 1): Service is the defining service's
// name and Name is local to it. Arity is the declared parameter count.
type RoleName struct {
	Service string `json:"service"`
	Name    string `json:"name"`
	Arity   int    `json:"arity"`
}

// NewRoleName constructs a RoleName after validating its components.
func NewRoleName(service, name string, arity int) (RoleName, error) {
	if service == "" || name == "" || arity < 0 {
		return RoleName{}, fmt.Errorf("%w: service=%q name=%q arity=%d",
			ErrBadRoleName, service, name, arity)
	}
	if strings.ContainsAny(service, "./(), \t\n") || strings.ContainsAny(name, "./(), \t\n") {
		return RoleName{}, fmt.Errorf("%w: illegal character in %q.%q", ErrBadRoleName, service, name)
	}
	return RoleName{Service: service, Name: name, Arity: arity}, nil
}

// MustRoleName is NewRoleName that panics on error; intended for package
// initialisation of test fixtures and examples.
func MustRoleName(service, name string, arity int) RoleName {
	rn, err := NewRoleName(service, name, arity)
	if err != nil {
		panic(err)
	}
	return rn
}

// String renders the qualified name as service.name/arity.
func (r RoleName) String() string {
	return fmt.Sprintf("%s.%s/%d", r.Service, r.Name, r.Arity)
}

// Role is an instance of a role name applied to parameter terms, e.g.
// treating_doctor(d17, p42). Params may contain variables inside policy
// rules; a role held by a principal is always ground.
type Role struct {
	Name   RoleName `json:"name"`
	Params []Term   `json:"params,omitempty"`
}

// NewRole pairs a role name with parameters, enforcing arity.
func NewRole(name RoleName, params ...Term) (Role, error) {
	if len(params) != name.Arity {
		return Role{}, fmt.Errorf("%w: %s given %d", ErrArity, name, len(params))
	}
	cp := make([]Term, len(params))
	copy(cp, params)
	return Role{Name: name, Params: cp}, nil
}

// MustRole is NewRole that panics on error.
func MustRole(name RoleName, params ...Term) Role {
	r, err := NewRole(name, params...)
	if err != nil {
		panic(err)
	}
	return r
}

// IsGround reports whether all parameters are ground.
func (r Role) IsGround() bool {
	for _, p := range r.Params {
		if !p.IsGround() {
			return false
		}
	}
	return true
}

// Equal reports structural equality of two roles.
func (r Role) Equal(g Role) bool {
	if r.Name != g.Name || len(r.Params) != len(g.Params) {
		return false
	}
	for i := range r.Params {
		if r.Params[i] != g.Params[i] {
			return false
		}
	}
	return true
}

// Apply returns a copy of r with the substitution applied to its parameters.
func (r Role) Apply(s Substitution) Role {
	return Role{Name: r.Name, Params: s.ApplyAll(r.Params)}
}

// Unify unifies the parameters of r against those of ground role g under s.
// Role names must match exactly (same defining service, name, and arity).
func (r Role) Unify(g Role, s Substitution) (Substitution, bool) {
	if r.Name != g.Name {
		return s, false
	}
	return UnifyTuples(r.Params, g.Params, s)
}

// String renders the role instance in policy syntax. Built in a single
// stack buffer rather than Sprintf+Join: Key (below) is computed on every
// activation and credential-set construction, so this sits on the hot
// path for million-principal login storms.
func (r Role) String() string {
	var buf [64]byte
	return string(r.AppendKey(buf[:0]))
}

// AppendKey appends the String rendering to dst. Validation compares a
// presented role against the stored credential-record subject with it,
// rendering into a stack buffer so the comparison allocates nothing.
func (r Role) AppendKey(dst []byte) []byte {
	dst = append(dst, r.Name.Service...)
	dst = append(dst, '.')
	dst = append(dst, r.Name.Name...)
	if len(r.Params) > 0 {
		dst = append(dst, '(')
		for i, p := range r.Params {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			switch p.Kind {
			case KindVar, KindAtom:
				dst = append(dst, p.Sym...)
			case KindString:
				dst = strconv.AppendQuote(dst, p.Sym)
			case KindInt:
				dst = strconv.AppendInt(dst, p.Num, 10)
			default:
				dst = append(dst, "<invalid>"...)
			}
		}
		dst = append(dst, ')')
	}
	return dst
}

// Key returns a canonical map key for a ground role instance.
func (r Role) Key() string { return r.String() }
