// Package sign implements the certificate cryptography described in Sect. 4
// of the paper: role membership and appointment certificates are protected
// by a signature F(principal_id, protected fields, SECRET), where SECRET is
// held by the issuing service. Knowledge of the secret is required to forge
// a signature (protection from forgery); the signature covers all protected
// fields (protection from tampering); and the principal identifier is an
// argument to the signature function without appearing in the certificate
// (protection from theft).
//
// The package also provides Ed25519 session key pairs and the ISO/9798-style
// challenge-response protocol of Sect. 4.1 used to prove possession of the
// private key matching a public key bound into an RMC.
package sign

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"
)

// Errors returned by signing and verification.
var (
	// ErrBadSignature is returned when a signature fails verification:
	// the certificate was tampered with, forged, or presented by a
	// principal other than the one it was issued to.
	ErrBadSignature = errors.New("signature verification failed")
	// ErrUnknownKey is returned when the key id on a certificate does
	// not correspond to any secret held by the verifier (e.g. the secret
	// was rotated out and the certificate was not re-issued).
	ErrUnknownKey = errors.New("unknown signing key id")
)

// SignatureSize is the length in bytes of certificate signatures.
const SignatureSize = sha256.Size

// Signature is an HMAC-SHA256 tag over a certificate's protected fields
// and the holder's principal identifier.
type Signature [SignatureSize]byte

// Secret is a service-held signing secret identified by KeyID. Certificates
// record the KeyID so the verifier can select the right secret after
// rotation.
type Secret struct {
	KeyID uint32
	Key   [32]byte
}

// NewSecret generates a fresh random secret with the given key id, reading
// entropy from r (use crypto/rand.Reader in production; a deterministic
// reader in tests).
func NewSecret(keyID uint32, r io.Reader) (Secret, error) {
	var s Secret
	s.KeyID = keyID
	if _, err := io.ReadFull(r, s.Key[:]); err != nil {
		return Secret{}, fmt.Errorf("generate secret: %w", err)
	}
	return s, nil
}

// macState is a pooled keyed HMAC: certificate verification runs on the
// callback-validation hot path, and building a fresh HMAC (two SHA-256
// states) per signature is the dominant allocation there. Reset restores
// the keyed initial state, so an instance is reusable as long as the key
// matches; on a key mismatch (rotation, multiple rings) it is re-keyed.
// The scratch fields keep the length frames and the principal-id bytes
// off the per-call heap: both would otherwise escape through the
// hash.Hash interface on every signature.
type macState struct {
	key  [32]byte
	h    hash.Hash
	lenb [8]byte
	pid  []byte
	sum  []byte
}

var macPool sync.Pool

// mac computes HMAC-SHA256(key, principalID || 0x00 || fields...) with
// length framing so that distinct field splits never collide.
func mac(key []byte, principalID string, fields [][]byte) Signature {
	st, _ := macPool.Get().(*macState)
	switch {
	case st == nil:
		st = &macState{}
		copy(st.key[:], key)
		st.h = hmac.New(sha256.New, key)
	case !bytes.Equal(st.key[:], key):
		copy(st.key[:], key)
		st.h = hmac.New(sha256.New, key)
	default:
		st.h.Reset()
	}
	st.pid = append(st.pid[:0], principalID...)
	st.writeFramed(st.pid)
	for _, f := range fields {
		st.writeFramed(f)
	}
	// Sum through the pooled scratch: passing sig[:0] straight into the
	// hash.Hash interface would make sig escape and cost a heap
	// allocation per signature.
	st.sum = st.h.Sum(st.sum[:0])
	var sig Signature
	copy(sig[:], st.sum)
	macPool.Put(st)
	return sig
}

func (st *macState) writeFramed(b []byte) {
	binary.BigEndian.PutUint64(st.lenb[:], uint64(len(b)))
	st.h.Write(st.lenb[:]) //nolint:errcheck // hash writers never fail
	st.h.Write(b)          //nolint:errcheck
}

// Sign computes the certificate signature for the protected fields, bound
// to principalID. The principal id is an input to the MAC but is not part
// of the certificate, exactly as in Fig. 4 of the paper.
func (s Secret) Sign(principalID string, fields ...[]byte) Signature {
	return mac(s.Key[:], principalID, fields)
}

// Verify checks sig against the protected fields and principal id.
func (s Secret) Verify(sig Signature, principalID string, fields ...[]byte) error {
	want := mac(s.Key[:], principalID, fields)
	if !hmac.Equal(want[:], sig[:]) {
		return ErrBadSignature
	}
	return nil
}

// KeyRing holds a service's current and historical secrets, supporting the
// rotation/re-issue cycle described for appointment certificates in
// Sect. 4.1 ("re-issued, encrypted with a new server secret, from time to
// time"). Verification accepts any retained secret; signing always uses the
// newest.
type KeyRing struct {
	mu      sync.RWMutex
	byID    map[uint32]Secret
	current uint32
	nextID  uint32
	retain  int
	order   []uint32 // oldest first
	entropy io.Reader
}

// NewKeyRing creates a key ring that retains up to retain historical
// secrets (minimum 1, the current secret). Entropy defaults to
// crypto/rand.Reader when nil.
func NewKeyRing(retain int, entropy io.Reader) (*KeyRing, error) {
	if retain < 1 {
		retain = 1
	}
	if entropy == nil {
		entropy = rand.Reader
	}
	kr := &KeyRing{
		byID:    make(map[uint32]Secret),
		retain:  retain,
		entropy: entropy,
	}
	if err := kr.Rotate(); err != nil {
		return nil, err
	}
	return kr, nil
}

// Rotate installs a fresh current secret, discarding secrets beyond the
// retention window. Certificates signed under discarded secrets fail
// verification with ErrUnknownKey and must be re-issued.
func (k *KeyRing) Rotate() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	id := k.nextID
	k.nextID++
	sec, err := NewSecret(id, k.entropy)
	if err != nil {
		return err
	}
	k.byID[id] = sec
	k.order = append(k.order, id)
	k.current = id
	for len(k.order) > k.retain {
		drop := k.order[0]
		k.order = k.order[1:]
		delete(k.byID, drop)
	}
	return nil
}

// CurrentKeyID returns the id of the secret used for new signatures.
func (k *KeyRing) CurrentKeyID() uint32 {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.current
}

// Sign signs with the current secret and returns the key id used.
func (k *KeyRing) Sign(principalID string, fields ...[]byte) (Signature, uint32) {
	k.mu.RLock()
	sec := k.byID[k.current]
	k.mu.RUnlock()
	return sec.Sign(principalID, fields...), sec.KeyID
}

// Export returns the retained secrets, oldest first, plus the retention
// window — everything needed to reconstruct an equivalent ring with
// NewKeyRingFromSecrets. Callers own the durability of the result: the
// secrets are the service's ability to verify every certificate it has
// issued.
func (k *KeyRing) Export() (secrets []Secret, retain int) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	secrets = make([]Secret, 0, len(k.order))
	for _, id := range k.order {
		secrets = append(secrets, k.byID[id])
	}
	return secrets, k.retain
}

// NewKeyRingFromSecrets reconstructs a ring from an Export, restoring the
// signing/verification state a service held before a crash: the last
// secret becomes current, and future rotations continue past the highest
// restored key id. Entropy defaults to crypto/rand.Reader when nil.
func NewKeyRingFromSecrets(secrets []Secret, retain int, entropy io.Reader) (*KeyRing, error) {
	if len(secrets) == 0 {
		return nil, errors.New("sign: no secrets to restore")
	}
	if retain < 1 {
		retain = 1
	}
	if entropy == nil {
		entropy = rand.Reader
	}
	kr := &KeyRing{
		byID:    make(map[uint32]Secret),
		retain:  retain,
		entropy: entropy,
	}
	for _, s := range secrets {
		if _, dup := kr.byID[s.KeyID]; dup {
			return nil, fmt.Errorf("sign: duplicate key id %d in restore", s.KeyID)
		}
		kr.byID[s.KeyID] = s
		kr.order = append(kr.order, s.KeyID)
		kr.current = s.KeyID
		if s.KeyID >= kr.nextID {
			kr.nextID = s.KeyID + 1
		}
	}
	for len(kr.order) > kr.retain {
		drop := kr.order[0]
		kr.order = kr.order[1:]
		delete(kr.byID, drop)
	}
	return kr, nil
}

// Verify checks a signature produced under keyID, if that secret is still
// retained.
func (k *KeyRing) Verify(keyID uint32, sig Signature, principalID string, fields ...[]byte) error {
	k.mu.RLock()
	sec, ok := k.byID[keyID]
	k.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownKey, keyID)
	}
	return sec.Verify(sig, principalID, fields...)
}
