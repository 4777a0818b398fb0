package gateway

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/names"
)

// benchBody is a /validate body shaped like the benchmark's: a session
// principal presenting a one-parameter RMC.
func benchBody(tb testing.TB) []byte {
	tb.Helper()
	rmc := cert.RMC{
		Role:  names.MustRole(names.MustRoleName("files", "reader", 1), names.Atom("u1a2b3c00042")),
		Ref:   cert.CRR{Issuer: "files", Serial: 4242},
		KeyID: 1,
	}
	for i := range rmc.Sig {
		rmc.Sig[i] = byte(i * 37)
	}
	body, err := json.Marshal(ValidateRequest{Principal: "sess-u1a2b3c00042", RMC: &rmc})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzDecodeValidateRequest holds decodeValidateRequest to its contract,
// json.Unmarshal into a fresh ValidateRequest: both accept or both
// refuse, an accepted body decodes to a deeply equal value, and nothing
// decoded aliases the (pooled, reused) body buffer. The committed corpus
// covers the quirks that contract includes: folded and escaped keys,
// repeated keys, nulls, unknown fields, short and long signatures,
// integer edge cases and trailing bytes.
func FuzzDecodeValidateRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var want ValidateRequest
		wantErr := json.Unmarshal(body, &want)
		buf := append([]byte(nil), body...)
		var got ValidateRequest
		gotErr := decodeValidateRequest(buf, &got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeValidateRequest(%q) err = %v, json.Unmarshal err = %v", body, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeValidateRequest(%q)\n got %#v\nwant %#v", body, got, want)
		}
		for i := range buf {
			buf[i] = '#'
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded request changed when the body buffer was overwritten: %#v", got)
		}
	})
}

func BenchmarkDecodeValidateRequest(b *testing.B) {
	body := benchBody(b)
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ValidateRequest
			if err := decodeValidateRequest(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ValidateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The nesting limit applies to the whole document, so a skipped value
// may nest one level less than its own limit when it sits in the body's
// object.
func TestDecodeValidateRequestNestingLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		wantErr := json.Unmarshal([]byte(body), new(ValidateRequest))
		gotErr := decodeValidateRequest([]byte(body), new(ValidateRequest))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("skipped value nested %d deep: err = %v, json.Unmarshal err = %v", depth, gotErr, wantErr)
		}
	}
}
