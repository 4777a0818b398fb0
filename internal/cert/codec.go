package cert

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/names"
	"repro/internal/sign"
)

// Binary certificate codec: hand-rolled append-style encoders and
// cursor-style decoders for the wire bodies on the validation hot path,
// replacing encoding/json there (the JSON forms remain the readable
// interchange format, per Sect. 5 of the paper; the signature protects
// the fields, not the encoding, so the two forms are interchangeable).
//
// Layout conventions: uvarint lengths and counts, signed varints for
// int64 values, raw bytes for fixed-size fields, and a one-byte presence
// flag + UnixNano varint for timestamps (flag 0 encodes the zero time,
// which has no in-range UnixNano). Decoders never trust a length beyond
// the remaining input and never panic on garbage — they return
// ErrBinaryCodec.

// ErrBinaryCodec is returned for any malformed binary certificate input.
var ErrBinaryCodec = errors.New("cert: malformed binary encoding")

// AppendLenString appends a uvarint length followed by the string's bytes.
func AppendLenString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// BinReader is a bounds-checked decode cursor. Methods keep the first
// error sticky so call sites can check once at the end of a struct. It
// is exported so other on-disk and on-wire formats (the durable journal)
// decode with the same primitives instead of a copy of them.
type BinReader struct {
	b   []byte
	err error
}

// NewBinReader returns a cursor at the front of b.
func NewBinReader(b []byte) *BinReader { return &BinReader{b: b} }

// Err is the first decode error, nil while every read so far fitted.
func (r *BinReader) Err() error { return r.err }

// Rest returns the bytes not yet consumed.
func (r *BinReader) Rest() []byte { return r.b }

// Fail marks the input malformed; later reads return zero values.
func (r *BinReader) Fail() {
	if r.err == nil {
		r.err = ErrBinaryCodec
	}
}

// Uvarint reads an unsigned varint.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a signed varint.
func (r *BinReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Byte reads one byte.
func (r *BinReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.Fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Str reads a uvarint-length-prefixed string (see AppendLenString).
func (r *BinReader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.Fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Raw reads n bytes, aliasing the input.
func (r *BinReader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.Fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Timestamps: presence flag + UnixNano varint. The zero time has no
// representable UnixNano, hence the flag.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, t.UnixNano())
}

func (r *BinReader) time() time.Time {
	switch r.Byte() {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(0, r.Varint())
	default:
		r.Fail()
		return time.Time{}
	}
}

// Terms: kind byte, then the kind's payload.
func appendTermBinary(dst []byte, t names.Term) []byte {
	dst = append(dst, byte(t.Kind))
	if t.Kind == names.KindInt {
		return binary.AppendVarint(dst, t.Num)
	}
	return AppendLenString(dst, t.Sym)
}

func (r *BinReader) term() names.Term {
	kind := names.TermKind(r.Byte())
	switch kind {
	case names.KindInt:
		return names.Term{Kind: kind, Num: r.Varint()}
	case names.KindVar, names.KindAtom, names.KindString:
		return names.Term{Kind: kind, Sym: r.Str()}
	default:
		r.Fail()
		return names.Term{}
	}
}

// AppendTermsBinary appends a uvarint count followed by each term.
func AppendTermsBinary(dst []byte, ts []names.Term) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	for _, t := range ts {
		dst = appendTermBinary(dst, t)
	}
	return dst
}

// maxBinaryCount bounds decoded element counts so a corrupt uvarint
// cannot drive a huge allocation before the input runs out.
const maxBinaryCount = 1 << 16

// Terms reads a term list written by AppendTermsBinary.
func (r *BinReader) Terms() []names.Term {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > maxBinaryCount || uint64(len(r.b)) < n {
		// Every term costs at least one byte; anything larger is corrupt.
		r.Fail()
		return nil
	}
	ts := make([]names.Term, n)
	for i := range ts {
		ts[i] = r.term()
	}
	return ts
}

// AppendCRRBinary appends the binary form of a CRR to dst.
func AppendCRRBinary(dst []byte, c CRR) []byte {
	dst = AppendLenString(dst, c.Issuer)
	return binary.AppendUvarint(dst, c.Serial)
}

func (r *BinReader) crr() CRR {
	return CRR{Issuer: r.Str(), Serial: r.Uvarint()}
}

// AppendRMCBinary appends the binary form of an RMC to dst: role
// (service, name, arity, params), CRR, key id, signature.
func AppendRMCBinary(dst []byte, rmc RMC) []byte {
	dst = AppendLenString(dst, rmc.Role.Name.Service)
	dst = AppendLenString(dst, rmc.Role.Name.Name)
	dst = binary.AppendUvarint(dst, uint64(rmc.Role.Name.Arity))
	dst = AppendTermsBinary(dst, rmc.Role.Params)
	dst = AppendCRRBinary(dst, rmc.Ref)
	dst = binary.AppendUvarint(dst, uint64(rmc.KeyID))
	return append(dst, rmc.Sig[:]...)
}

func (r *BinReader) rmc() RMC {
	var rmc RMC
	rmc.Role.Name.Service = r.Str()
	rmc.Role.Name.Name = r.Str()
	rmc.Role.Name.Arity = int(r.Uvarint())
	rmc.Role.Params = r.Terms()
	rmc.Ref = r.crr()
	rmc.KeyID = uint32(r.Uvarint())
	copy(rmc.Sig[:], r.Raw(len(sign.Signature{})))
	return rmc
}

// AppendAppointmentBinary appends the binary form of an appointment
// certificate to dst.
func AppendAppointmentBinary(dst []byte, a AppointmentCertificate) []byte {
	dst = AppendLenString(dst, a.Issuer)
	dst = binary.AppendUvarint(dst, a.Serial)
	dst = AppendLenString(dst, a.Kind)
	dst = AppendTermsBinary(dst, a.Params)
	dst = AppendLenString(dst, a.Holder)
	dst = AppendLenString(dst, a.AppointedBy)
	dst = appendTime(dst, a.IssuedAt)
	dst = appendTime(dst, a.ExpiresAt)
	dst = binary.AppendUvarint(dst, uint64(a.KeyID))
	return append(dst, a.Sig[:]...)
}

// Appointment reads a certificate written by AppendAppointmentBinary.
func (r *BinReader) Appointment() AppointmentCertificate {
	var a AppointmentCertificate
	a.Issuer = r.Str()
	a.Serial = r.Uvarint()
	a.Kind = r.Str()
	a.Params = r.Terms()
	a.Holder = r.Str()
	a.AppointedBy = r.Str()
	a.IssuedAt = r.time()
	a.ExpiresAt = r.time()
	a.KeyID = uint32(r.Uvarint())
	copy(a.Sig[:], r.Raw(len(sign.Signature{})))
	return a
}

// ReadRMCBinary decodes one RMC from the front of b, returning the
// remaining bytes — the composition point for multi-certificate wire
// bodies such as validation batches.
func ReadRMCBinary(b []byte) (RMC, []byte, error) {
	r := BinReader{b: b}
	rmc := r.rmc()
	if r.err != nil {
		return RMC{}, nil, fmt.Errorf("decode rmc: %w", r.err)
	}
	return rmc, r.b, nil
}

// ReadAppointmentBinary decodes one appointment certificate from the
// front of b, returning the remaining bytes.
func ReadAppointmentBinary(b []byte) (AppointmentCertificate, []byte, error) {
	r := BinReader{b: b}
	a := r.Appointment()
	if r.err != nil {
		return AppointmentCertificate{}, nil, fmt.Errorf("decode appointment: %w", r.err)
	}
	return a, r.b, nil
}

// EncodeRMCBinary encodes a single RMC.
func EncodeRMCBinary(rmc RMC) []byte { return AppendRMCBinary(nil, rmc) }

// DecodeRMCBinary decodes a single RMC, requiring the whole input to be
// consumed.
func DecodeRMCBinary(b []byte) (RMC, error) {
	rmc, rest, err := ReadRMCBinary(b)
	if err != nil {
		return RMC{}, err
	}
	if len(rest) != 0 {
		return RMC{}, fmt.Errorf("decode rmc: %d trailing bytes: %w", len(rest), ErrBinaryCodec)
	}
	return rmc, nil
}

// EncodeAppointmentBinary encodes a single appointment certificate.
func EncodeAppointmentBinary(a AppointmentCertificate) []byte {
	return AppendAppointmentBinary(nil, a)
}

// DecodeAppointmentBinary decodes a single appointment certificate,
// requiring the whole input to be consumed.
func DecodeAppointmentBinary(b []byte) (AppointmentCertificate, error) {
	a, rest, err := ReadAppointmentBinary(b)
	if err != nil {
		return AppointmentCertificate{}, err
	}
	if len(rest) != 0 {
		return AppointmentCertificate{}, fmt.Errorf("decode appointment: %d trailing bytes: %w", len(rest), ErrBinaryCodec)
	}
	return a, nil
}
