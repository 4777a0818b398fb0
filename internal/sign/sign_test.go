package sign

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
	"testing/quick"
)

// zeroReader yields deterministic (zero) entropy for tests that need
// reproducible secrets.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// countingReader yields incrementing bytes so consecutive secrets differ.
type countingReader struct{ n byte }

func (c *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = c.n
		c.n++
	}
	return len(p), nil
}

func TestSignVerifyRoundTrip(t *testing.T) {
	sec := MustNewSecret(1)
	sig := sec.Sign("alice", []byte("role"), []byte("param"))
	if err := sec.Verify(sig, "alice", []byte("role"), []byte("param")); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsWrongPrincipal(t *testing.T) {
	sec := MustNewSecret(1)
	sig := sec.Sign("alice", []byte("f"))
	if err := sec.Verify(sig, "bob", []byte("f")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("stolen certificate verified for wrong principal: %v", err)
	}
}

func TestVerifyRejectsTamperedField(t *testing.T) {
	sec := MustNewSecret(1)
	sig := sec.Sign("alice", []byte("doctor"), []byte("p1"))
	if err := sec.Verify(sig, "alice", []byte("doctor"), []byte("p2")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered field verified: %v", err)
	}
}

func TestVerifyRejectsFieldSplitting(t *testing.T) {
	// Length framing must prevent ["ab","c"] == ["a","bc"] collisions.
	sec := MustNewSecret(1)
	sig := sec.Sign("p", []byte("ab"), []byte("c"))
	if err := sec.Verify(sig, "p", []byte("a"), []byte("bc")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("field-splitting collision: %v", err)
	}
	if err := sec.Verify(sig, "p", []byte("abc")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("field-merging collision: %v", err)
	}
}

func TestVerifyRejectsWrongSecret(t *testing.T) {
	r := &countingReader{}
	s1, err := NewSecret(1, r)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSecret(2, r)
	if err != nil {
		t.Fatal(err)
	}
	sig := s1.Sign("p", []byte("f"))
	if err := s2.Verify(sig, "p", []byte("f")); !errors.Is(err, ErrBadSignature) {
		t.Errorf("forged signature accepted under different secret: %v", err)
	}
}

func TestNewSecretDeterministicWithEntropy(t *testing.T) {
	a, err := NewSecret(7, zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSecret(7, zeroReader{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Key[:], b.Key[:]) {
		t.Error("same entropy should give same secret")
	}
}

// Property (I1): any single-bit flip in the signature breaks verification.
func TestQuickBitFlipBreaksSignature(t *testing.T) {
	sec := MustNewSecret(1)
	f := func(principal string, field []byte, bit uint16) bool {
		sig := sec.Sign(principal, field)
		i := int(bit) % (SignatureSize * 8)
		sig[i/8] ^= 1 << uint(i%8)
		return errors.Is(sec.Verify(sig, principal, field), ErrBadSignature)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (I1): valid signatures always verify.
func TestQuickSignVerifyAlways(t *testing.T) {
	sec := MustNewSecret(9)
	f := func(principal string, f1, f2 []byte) bool {
		sig := sec.Sign(principal, f1, f2)
		return sec.Verify(sig, principal, f1, f2) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyRingSignVerify(t *testing.T) {
	kr, err := NewKeyRing(2, &countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	sig, id := kr.Sign("alice", []byte("f"))
	if err := kr.Verify(id, sig, "alice", []byte("f")); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestKeyRingRotationKeepsRecentKeys(t *testing.T) {
	kr, err := NewKeyRing(2, &countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	sig0, id0 := kr.Sign("p", []byte("f"))
	if err := kr.Rotate(); err != nil {
		t.Fatal(err)
	}
	// Old signature still verifies within the retention window.
	if err := kr.Verify(id0, sig0, "p", []byte("f")); err != nil {
		t.Fatalf("retained key rejected: %v", err)
	}
	// New signatures use the new key.
	_, id1 := kr.Sign("p", []byte("f"))
	if id1 == id0 {
		t.Error("rotation did not change current key")
	}
	// A second rotation evicts the original key.
	if err := kr.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := kr.Verify(id0, sig0, "p", []byte("f")); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("evicted key still accepted: %v", err)
	}
}

func TestKeyRingMinimumRetention(t *testing.T) {
	kr, err := NewKeyRing(0, &countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	sig, id := kr.Sign("p", []byte("x"))
	if err := kr.Verify(id, sig, "p", []byte("x")); err != nil {
		t.Fatalf("current key must always verify: %v", err)
	}
	if err := kr.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := kr.Verify(id, sig, "p", []byte("x")); !errors.Is(err, ErrUnknownKey) {
		t.Error("retain=1 ring kept old key after rotation")
	}
}

func TestKeyRingCurrentKeyID(t *testing.T) {
	kr, err := NewKeyRing(3, &countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	before := kr.CurrentKeyID()
	if err := kr.Rotate(); err != nil {
		t.Fatal(err)
	}
	if kr.CurrentKeyID() == before {
		t.Error("CurrentKeyID unchanged after rotation")
	}
}

// MustNewSecret generates a secret from crypto/rand, panicking on entropy
// failure.
func MustNewSecret(keyID uint32) Secret {
	s, err := NewSecret(keyID, rand.Reader)
	if err != nil {
		panic(err)
	}
	return s
}
