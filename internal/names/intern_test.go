package names

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// data returns the string's backing-array pointer: two interned equal
// strings must share it.
func data(s string) *byte { return unsafe.StringData(s) }

func TestInternStringCanonical(t *testing.T) {
	a := InternString("ward_" + fmt.Sprint(3))
	b := InternString(string([]byte("ward_3"))) // force a distinct allocation
	if a != b {
		t.Fatalf("interned strings unequal: %q vs %q", a, b)
	}
	if data(a) != data(b) {
		t.Fatalf("interned equal strings do not share storage")
	}
}

func TestInternStringClonesSubstrings(t *testing.T) {
	// Interning a substring of a large buffer must not retain the buffer.
	big := make([]byte, 1<<16)
	copy(big, "substr_payload_xyz")
	sub := string(big[:18])
	c := InternString(sub)
	if c != "substr_payload_xyz" {
		t.Fatalf("canonical copy corrupted: %q", c)
	}
	if data(c) == data(sub) && unsafe.StringData(sub) == &big[0] {
		t.Fatalf("canonical copy aliases the source buffer")
	}
}

// randTerm builds a random term from a small vocabulary so collisions are
// frequent (the interesting case for interning).
func randTerm(rng *rand.Rand) Term {
	switch rng.Intn(4) {
	case 0:
		return Var(fmt.Sprintf("V%d", rng.Intn(8)))
	case 1:
		return Atom(fmt.Sprintf("atom_%d", rng.Intn(16)))
	case 2:
		return Str(fmt.Sprintf("str %d", rng.Intn(16)))
	default:
		return Int(int64(rng.Intn(1000) - 500))
	}
}

// TestInternedTermsBehaveIdentically is the property test: for random
// terms, the interned form is structurally equal to the original, renders
// identically, JSON round-trips to the same value, and unifies exactly as
// the uninterned form does.
func TestInternedTermsBehaveIdentically(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 2000; i++ {
		orig := randTerm(rng)
		in := orig.Intern()
		if !in.Equal(orig) {
			t.Fatalf("interned term %v != original %v", in, orig)
		}
		if in.String() != orig.String() {
			t.Fatalf("interned render %q != %q", in.String(), orig.String())
		}
		bi, err1 := json.Marshal(in)
		bo, err2 := json.Marshal(orig)
		if err1 != nil || err2 != nil {
			t.Fatalf("marshal: %v / %v", err1, err2)
		}
		if string(bi) != string(bo) {
			t.Fatalf("interned JSON %s != uninterned %s", bi, bo)
		}
		var back Term
		if err := json.Unmarshal(bi, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !back.Equal(orig) {
			t.Fatalf("JSON round-trip of interned term: got %v want %v", back, orig)
		}

		// Unification must be indifferent to interning.
		other := randTerm(rng)
		s1, s2 := NewSubstitution(), NewSubstitution()
		ok1 := Unify(orig, other, s1)
		ok2 := Unify(in, other.Intern(), s2)
		if ok1 != ok2 {
			t.Fatalf("Unify(%v, %v): uninterned %v, interned %v", orig, other, ok1, ok2)
		}
	}
}

func TestInternRoleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		n := MustRoleName(fmt.Sprintf("svc%d", rng.Intn(4)), fmt.Sprintf("role%d", rng.Intn(4)), 2)
		orig, err := NewRole(n, randTerm(rng), randTerm(rng))
		if err != nil {
			t.Fatalf("NewRole: %v", err)
		}
		in := orig.Intern()
		if !in.Equal(orig) {
			t.Fatalf("interned role %v != original %v", in, orig)
		}
		if in.Key() != orig.Key() {
			t.Fatalf("interned key %q != %q", in.Key(), orig.Key())
		}
		bi, _ := json.Marshal(in)
		bo, _ := json.Marshal(orig)
		if string(bi) != string(bo) {
			t.Fatalf("interned role JSON %s != %s", bi, bo)
		}
		// Equal role names interned twice share storage.
		again := MustRoleName(n.Service, n.Name, n.Arity).Intern()
		if data(again.Service) != data(in.Name.Service) || data(again.Name) != data(in.Name.Name) {
			t.Fatalf("re-interned role name does not share storage")
		}
	}
}

// TestInternHammer drives the intern table from many goroutines over an
// overlapping vocabulary; run with -race. Afterwards every spelling must
// map to a single canonical pointer.
func TestInternHammer(t *testing.T) {
	const goroutines = 16
	const vocab = 64
	var wg sync.WaitGroup
	got := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			out := make([]string, vocab)
			for i := 0; i < 20000; i++ {
				k := rng.Intn(vocab)
				s := InternString(fmt.Sprintf("hammer_%d", k))
				out[k] = s
				if i%97 == 0 {
					InternTerms([]Term{Atom(s), Str(s), Int(int64(k))})
				}
			}
			got[g] = out
		}(g)
	}
	wg.Wait()
	for k := 0; k < vocab; k++ {
		var canon *byte
		for g := 0; g < goroutines; g++ {
			if got[g][k] == "" {
				continue
			}
			p := data(got[g][k])
			if canon == nil {
				canon = p
			} else if p != canon {
				t.Fatalf("vocab %d: two canonical pointers observed", k)
			}
		}
	}
	entries, bytes := InternStats()
	if entries <= 0 || bytes <= 0 {
		t.Fatalf("InternStats() = %d, %d; want positive", entries, bytes)
	}
}

func BenchmarkInternStringHit(b *testing.B) {
	s := InternString("bench_hit_key")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if InternString(s) != s {
			b.Fatal("mismatch")
		}
	}
}
