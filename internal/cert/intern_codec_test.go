package cert

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/names"
)

// internRMC returns the sample RMC with its role canonicalised through
// the names intern table.
func internRMC(r RMC) RMC {
	r.Role = r.Role.Intern()
	r.Ref.Issuer = names.InternString(r.Ref.Issuer)
	return r
}

// TestInternedRMCBinaryEquivalence: interning changes which backing
// arrays equal strings share, never their values — so an interned
// certificate must produce byte-identical wire forms (JSON and the PR 5
// binary codec), verify under the same signature, and round-trip back to
// a structurally equal certificate.
func TestInternedRMCBinaryEquivalence(t *testing.T) {
	plain := sampleRMC()
	interned := internRMC(sampleRMC())

	jp, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	ji, err := json.Marshal(interned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jp, ji) {
		t.Fatalf("interned JSON differs:\n%s\n%s", jp, ji)
	}

	bp := EncodeRMCBinary(plain)
	bi := EncodeRMCBinary(interned)
	if !bytes.Equal(bp, bi) {
		t.Fatalf("interned binary encoding differs: %x vs %x", bp, bi)
	}
	back, err := DecodeRMCBinary(bi)
	if err != nil {
		t.Fatal(err)
	}
	if !rmcEqual(back, plain) {
		t.Fatalf("interned binary round trip: got %+v want %+v", back, plain)
	}
}

func TestInternedAppointmentBinaryEquivalence(t *testing.T) {
	plain := sampleAppointment()
	interned := sampleAppointment()
	interned.Issuer = names.InternString(interned.Issuer)
	interned.Kind = names.InternString(interned.Kind)
	interned.Holder = names.InternString(interned.Holder)
	names.InternTerms(interned.Params)

	bp := EncodeAppointmentBinary(plain)
	bi := EncodeAppointmentBinary(interned)
	if !bytes.Equal(bp, bi) {
		t.Fatalf("interned appointment binary encoding differs")
	}
	back, err := DecodeAppointmentBinary(bi)
	if err != nil {
		t.Fatal(err)
	}
	if !apptEqual(back, plain) {
		t.Fatalf("interned appointment round trip: got %+v want %+v", back, plain)
	}
}

// TestInternedRMCSignatureStable: a certificate signed before interning
// must verify after its fields are canonicalised (and vice versa) — the
// signature covers values, not pointers.
func TestInternedRMCSignatureStable(t *testing.T) {
	ring := testRing(t)
	role := names.MustRole(names.MustRoleName("hospital", "treating_doctor", 2),
		names.Atom("d17"), names.Int(42))
	rmc, err := IssueRMC(ring, "pid-1", role, CRR{Issuer: "hospital", Serial: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := internRMC(rmc).Verify(ring, "pid-1"); err != nil {
		t.Fatalf("interned RMC failed verification: %v", err)
	}
}
