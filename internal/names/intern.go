package names

import (
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// Term interning.
//
// A service holding millions of credential records stores millions of
// parameter terms and role-name components, and in a deployment those
// strings arrive from the wire: every decoded request allocates fresh
// copies of vocabulary that is overwhelmingly shared (service names, role
// names, hospital/ward/department atoms — the parameterized-RBAC argument
// for OASIS roles is precisely that the parameter vocabulary is small
// relative to the principal population). Interning folds all of those
// copies into one canonical table so equal terms share storage: an
// interned string is a pointer into the table, two interned equal strings
// have the same data pointer, and Go's string comparison short-circuits
// on pointer equality, so interned terms also compare at pointer speed.
//
// Interning also detaches retained strings from transient decode buffers
// (the canonical copy is cloned on first sight), so a resident record
// never pins the multi-kilobyte wire frame its key arrived in.
//
// The table is append-only and sharded 64 ways; the read path is one
// hash plus a shard RLock.

const internShards = 64

// internMaxEntries caps the canonical table (~4M entries). Interning
// targets shared vocabulary — role names, parameter atoms, revocation
// reasons — whose cardinality is tiny relative to the principal
// population; the cap means an adversarial or degenerate stream of
// unique strings degrades interning to a no-op instead of growing the
// table without bound. At the cap, InternString returns its argument
// unchanged (already-canonical strings still resolve).
const internMaxEntries = 1 << 22

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var (
	internSeed  = maphash.MakeSeed()
	internTable [internShards]internShard

	// internCount / internBytes track table size for the obs gauges and
	// the capacity report.
	internCount atomic.Int64
	internBytes atomic.Int64
)

// InternStats reports the intern table's entry count and retained bytes
// (string contents only, excluding map overhead).
func InternStats() (entries int64, bytes int64) {
	return internCount.Load(), internBytes.Load()
}

// InternString returns the canonical copy of s, inserting it on first
// sight. The canonical copy is cloned, so interning a substring of a
// large decode buffer retains only the substring's bytes.
func InternString(s string) string {
	if s == "" {
		return s
	}
	sh := &internTable[maphash.String(internSeed, s)%internShards]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	if internCount.Load() >= internMaxEntries {
		return s
	}
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		c = strings.Clone(s)
		if sh.m == nil {
			sh.m = make(map[string]string)
		}
		sh.m[c] = c
		internCount.Add(1)
		internBytes.Add(int64(len(c)))
	}
	sh.mu.Unlock()
	return c
}

// Intern returns t with its symbol canonicalised. Integer terms pass
// through unchanged; variable, atom and string terms share their Sym with
// every other interned term spelling the same symbol.
func (t Term) Intern() Term {
	if t.Sym != "" {
		t.Sym = InternString(t.Sym)
	}
	return t
}

// InternTerms canonicalises a tuple in place and returns it.
func InternTerms(ts []Term) []Term {
	for i := range ts {
		ts[i] = ts[i].Intern()
	}
	return ts
}

// Intern returns the role name with both components canonicalised.
func (r RoleName) Intern() RoleName {
	r.Service = InternString(r.Service)
	r.Name = InternString(r.Name)
	return r
}

// Intern canonicalises the role's name and parameters. The parameter
// slice is rewritten in place (constructors copy parameters, so a role
// reaching storage owns its slice).
func (r Role) Intern() Role {
	r.Name = r.Name.Intern()
	InternTerms(r.Params)
	return r
}
