// Package baseline implements the comparator access-control systems that
// the paper positions OASIS against (Sects. 1, 2 and 7): plain access
// control lists, unparametrised RBAC with long-lived role membership
// (RBAC96-style), delegation-based RBAC (Barka-Sandhu style, refs [3,4]),
// and polling-based revocation in place of the active event infrastructure.
// The experiment harness (E9) uses these to reproduce the paper's
// comparative claims: policy-size scaling, role explosion without
// parametrised roles, and revocation latency without events.
package baseline

import "sync"

// Right is an access right on an object.
type Right string

// RightRead is the right the experiments grant and check.
const RightRead Right = "read"

// ACLService is the pre-RBAC baseline: per-object access control lists.
// The paper's motivation: "The detailed management of large numbers of
// access control lists, as people change their employment or function, is
// avoided" by RBAC — this type exists to measure exactly that management
// burden.
type ACLService struct {
	mu      sync.RWMutex
	acl     map[string]map[string]map[Right]bool // object -> principal -> rights
	entries int
}

// NewACLService creates an empty ACL store.
func NewACLService() *ACLService {
	return &ACLService{acl: make(map[string]map[string]map[Right]bool)}
}

// Grant adds an ACL entry.
func (s *ACLService) Grant(object, principal string, r Right) {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.acl[object]
	if !ok {
		obj = make(map[string]map[Right]bool)
		s.acl[object] = obj
	}
	rights, ok := obj[principal]
	if !ok {
		rights = make(map[Right]bool)
		obj[principal] = rights
	}
	if !rights[r] {
		rights[r] = true
		s.entries++
	}
}

// Revoke removes an ACL entry; it reports whether the entry existed.
func (s *ACLService) Revoke(object, principal string, r Right) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rights, ok := s.acl[object][principal]
	if !ok || !rights[r] {
		return false
	}
	delete(rights, r)
	s.entries--
	return true
}

// Check tests an access.
func (s *ACLService) Check(object, principal string, r Right) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.acl[object][principal][r]
}

// Entries reports the total number of ACL entries — the policy size the
// administrator must manage.
func (s *ACLService) Entries() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.entries
}

// RevokePrincipal removes every entry for a principal (the "person changes
// employment" event) and reports how many entries had to be touched.
func (s *ACLService) RevokePrincipal(principal string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, obj := range s.acl {
		if rights, ok := obj[principal]; ok {
			n += len(rights)
			delete(obj, principal)
		}
	}
	s.entries -= n
	return n
}
