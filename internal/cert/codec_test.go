package cert

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/names"
	"repro/internal/sign"
)

func sampleRMC() RMC {
	role := names.MustRole(names.MustRoleName("hospital", "treating_doctor", 2),
		names.Atom("d17"), names.Int(42))
	var sig sign.Signature
	for i := range sig {
		sig[i] = byte(i * 7)
	}
	return RMC{Role: role, Ref: CRR{Issuer: "hospital", Serial: 910}, KeyID: 3, Sig: sig}
}

func sampleAppointment() AppointmentCertificate {
	var sig sign.Signature
	for i := range sig {
		sig[i] = byte(255 - i)
	}
	return AppointmentCertificate{
		Issuer:      "medical-board",
		Serial:      77,
		Kind:        "employed_as_doctor",
		Params:      []names.Term{names.Str("st-marys"), names.Int(-9)},
		Holder:      "key:doctor-17",
		AppointedBy: "key:registrar-1",
		IssuedAt:    time.Unix(1700000000, 123456789),
		ExpiresAt:   time.Unix(1800000000, 0),
		KeyID:       2,
		Sig:         sig,
	}
}

// rmcEqual compares RMCs treating nil and empty param slices as equal
// (the JSON codec's omitempty round-trips empty as nil).
func rmcEqual(a, b RMC) bool {
	if len(a.Role.Params) == 0 && len(b.Role.Params) == 0 {
		a.Role.Params, b.Role.Params = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func apptEqual(a, b AppointmentCertificate) bool {
	if !a.IssuedAt.Equal(b.IssuedAt) || !a.ExpiresAt.Equal(b.ExpiresAt) {
		return false
	}
	a.IssuedAt, b.IssuedAt = time.Time{}, time.Time{}
	a.ExpiresAt, b.ExpiresAt = time.Time{}, time.Time{}
	if len(a.Params) == 0 && len(b.Params) == 0 {
		a.Params, b.Params = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

func TestRMCBinaryRoundTrip(t *testing.T) {
	cases := []RMC{
		sampleRMC(),
		{}, // zero value
		{Role: names.MustRole(names.MustRoleName("s", "r", 0))},
	}
	for _, want := range cases {
		got, err := DecodeRMCBinary(EncodeRMCBinary(want))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !rmcEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

// TestRMCBinaryMatchesJSON: both codecs must reproduce the same
// certificate — the signature covers fields, not encodings, so a cert
// that crossed the wire in either form must verify identically.
func TestRMCBinaryMatchesJSON(t *testing.T) {
	want := sampleRMC()
	jsonBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := UnmarshalRMC(jsonBytes)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeRMCBinary(EncodeRMCBinary(want))
	if err != nil {
		t.Fatal(err)
	}
	if !rmcEqual(fromJSON, fromBin) {
		t.Fatalf("codecs disagree: json %+v binary %+v", fromJSON, fromBin)
	}
	if len(EncodeRMCBinary(want)) >= len(jsonBytes) {
		t.Fatalf("binary form (%d bytes) not smaller than JSON (%d bytes)",
			len(EncodeRMCBinary(want)), len(jsonBytes))
	}
}

func TestAppointmentBinaryRoundTrip(t *testing.T) {
	cases := []AppointmentCertificate{
		sampleAppointment(),
		{}, // zero value: both timestamps zero
		{Issuer: "x", ExpiresAt: time.Unix(1, 1)},
	}
	for _, want := range cases {
		got, err := DecodeAppointmentBinary(EncodeAppointmentBinary(want))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !apptEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestAppointmentBinaryMatchesJSON(t *testing.T) {
	want := sampleAppointment()
	jsonBytes, err := MarshalAppointment(want)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := UnmarshalAppointment(jsonBytes)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeAppointmentBinary(EncodeAppointmentBinary(want))
	if err != nil {
		t.Fatal(err)
	}
	if !apptEqual(fromJSON, fromBin) {
		t.Fatalf("codecs disagree: json %+v binary %+v", fromJSON, fromBin)
	}
}

// TestReadRMCBinaryComposes: two certificates back to back decode in
// sequence with the cursor API (the batch wire body shape).
func TestReadRMCBinaryComposes(t *testing.T) {
	a, b := sampleRMC(), sampleRMC()
	b.Ref.Serial = 911
	buf := AppendRMCBinary(AppendRMCBinary(nil, a), b)
	gotA, rest, err := ReadRMCBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotB, rest, err := ReadRMCBinary(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || !rmcEqual(gotA, a) || !rmcEqual(gotB, b) {
		t.Fatalf("composition round trip failed (rest=%d)", len(rest))
	}
}

func TestDecodeBinaryRejectsTrailingGarbage(t *testing.T) {
	buf := append(EncodeRMCBinary(sampleRMC()), 0xee)
	if _, err := DecodeRMCBinary(buf); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	buf = append(EncodeAppointmentBinary(sampleAppointment()), 0x01)
	if _, err := DecodeAppointmentBinary(buf); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeBinaryTruncation(t *testing.T) {
	full := EncodeRMCBinary(sampleRMC())
	for i := 0; i < len(full); i++ {
		if _, err := DecodeRMCBinary(full[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

// fuzzTerm maps fuzzer-chosen primitives onto a valid term.
func fuzzTerm(kind byte, sym string, num int64) names.Term {
	switch kind % 4 {
	case 0:
		return names.Var(sym)
	case 1:
		return names.Atom(sym)
	case 2:
		return names.Str(sym)
	default:
		return names.Int(num)
	}
}

// FuzzRMCBinaryRoundTrip: for any field values, decode(encode(x)) == x.
func FuzzRMCBinaryRoundTrip(f *testing.F) {
	f.Add("svc", "role", uint64(1), byte(1), "p", int64(-5), uint64(99), "issuer", uint32(7))
	f.Add("", "", uint64(0), byte(3), "", int64(0), uint64(0), "", uint32(0))
	f.Fuzz(func(t *testing.T, service, roleName string, arity uint64, termKind byte,
		termSym string, termNum int64, serial uint64, issuer string, keyID uint32) {
		want := RMC{
			Role: names.Role{
				Name:   names.RoleName{Service: service, Name: roleName, Arity: int(arity % 16)},
				Params: []names.Term{fuzzTerm(termKind, termSym, termNum)},
			},
			Ref:   CRR{Issuer: issuer, Serial: serial},
			KeyID: keyID,
		}
		for i := range want.Sig {
			want.Sig[i] = byte(int(termKind) + i)
		}
		got, err := DecodeRMCBinary(EncodeRMCBinary(want))
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if !rmcEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzAppointmentBinaryRoundTrip: same property for appointments,
// including the two timestamps.
func FuzzAppointmentBinaryRoundTrip(f *testing.F) {
	f.Add("board", uint64(1), "doctor", "holder", "appointer", int64(1700000000), int64(0), uint32(1))
	f.Fuzz(func(t *testing.T, issuer string, serial uint64, kind, holder, by string,
		issuedNano, expiresNano int64, keyID uint32) {
		want := AppointmentCertificate{
			Issuer: issuer, Serial: serial, Kind: kind,
			Holder: holder, AppointedBy: by, KeyID: keyID,
		}
		if issuedNano != 0 {
			want.IssuedAt = time.Unix(0, issuedNano)
		}
		if expiresNano != 0 {
			want.ExpiresAt = time.Unix(0, expiresNano)
		}
		got, err := DecodeAppointmentBinary(EncodeAppointmentBinary(want))
		if err != nil {
			t.Fatalf("decode(encode(x)): %v", err)
		}
		if !apptEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	})
}

// FuzzDecodeCertBinary: arbitrary bytes never panic either decoder, and
// a successful decode re-encodes to an equivalent certificate.
func FuzzDecodeCertBinary(f *testing.F) {
	f.Add(EncodeRMCBinary(sampleRMC()))
	f.Add(EncodeAppointmentBinary(sampleAppointment()))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if rmc, err := DecodeRMCBinary(data); err == nil {
			again, err := DecodeRMCBinary(EncodeRMCBinary(rmc))
			if err != nil || !rmcEqual(again, rmc) {
				t.Fatalf("re-encode of decoded RMC not stable: %v", err)
			}
		}
		if a, err := DecodeAppointmentBinary(data); err == nil {
			again, err := DecodeAppointmentBinary(EncodeAppointmentBinary(a))
			if err != nil || !apptEqual(again, a) {
				t.Fatalf("re-encode of decoded appointment not stable: %v", err)
			}
		}
	})
}

// Guard against the codecs silently diverging from the JSON field set: if
// someone adds a field to the struct (visible in JSON) without extending
// the binary codec, this test fails.
func TestBinaryCodecCoversAllJSONFields(t *testing.T) {
	a := sampleAppointment()
	var viaJSON, viaBin map[string]any
	j1, _ := json.Marshal(a)
	dec, err := DecodeAppointmentBinary(EncodeAppointmentBinary(a))
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(dec)
	if err := json.Unmarshal(j1, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(j2, &viaBin); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaJSON, viaBin) {
		t.Fatalf("binary codec drops fields:\n direct %s\n via binary %s", j1, j2)
	}
}
