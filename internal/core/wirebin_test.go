package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/names"
)

func sampleWireRMC() cert.RMC {
	return cert.RMC{
		Role: names.MustRole(names.MustRoleName("login", "user", 1), names.Atom("alice")),
		Ref:  cert.CRR{Issuer: "login", Serial: 42},
	}
}

func sampleWireAppt() cert.AppointmentCertificate {
	return cert.AppointmentCertificate{
		Issuer:      "hospital",
		Serial:      7,
		Kind:        "doctor",
		Params:      []names.Term{names.Atom("cardiology")},
		Holder:      "bob",
		AppointedBy: "dean",
		IssuedAt:    time.Date(2001, 11, 12, 9, 0, 0, 0, time.UTC),
		ExpiresAt:   time.Date(2002, 11, 12, 9, 0, 0, 0, time.UTC),
	}
}

func itemsEqual(a, b validateItem) bool {
	if a.isAppt != b.isAppt || a.principal != b.principal {
		return false
	}
	if a.isAppt {
		x, y := a.appt, b.appt
		if !x.IssuedAt.Equal(y.IssuedAt) || !x.ExpiresAt.Equal(y.ExpiresAt) {
			return false
		}
		x.IssuedAt, y.IssuedAt = time.Time{}, time.Time{}
		x.ExpiresAt, y.ExpiresAt = time.Time{}, time.Time{}
		return reflect.DeepEqual(x, y)
	}
	return reflect.DeepEqual(a.rmc, b.rmc)
}

func TestValidateReqBinaryRoundTrip(t *testing.T) {
	for _, it := range []validateItem{
		rmcItem(sampleWireRMC(), "alice"),
		apptItem(sampleWireAppt()),
		rmcItem(cert.RMC{}, ""),
	} {
		got, err := decodeValidateReqBinary(it.encodeBinary())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !itemsEqual(got, it) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, it)
		}
	}
}

func TestValidateRespBinaryRoundTrip(t *testing.T) {
	for _, resp := range []validateResponse{
		{Valid: true},
		{Valid: false, Reason: "revoked: account closed"},
		{Valid: false},
	} {
		got, err := decodeValidateRespBinary(encodeValidateRespBinary(resp))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != resp {
			t.Errorf("round trip: got %+v want %+v", got, resp)
		}
	}
}

func TestValidateBatchRoundTripMixedKinds(t *testing.T) {
	items := []validateItem{
		rmcItem(sampleWireRMC(), "alice"),
		apptItem(sampleWireAppt()),
		rmcItem(sampleWireRMC(), "carol"),
	}
	got, err := decodeValidateBatchReq(encodeValidateBatchReq(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if !itemsEqual(got[i], items[i]) {
			t.Errorf("item %d mismatch", i)
		}
	}

	resps := []validateResponse{{Valid: true}, {Valid: false, Reason: "expired"}, {Valid: true}}
	gotR, err := decodeValidateBatchResp(encodeValidateBatchResp(resps))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotR, resps) {
		t.Errorf("responses: got %+v want %+v", gotR, resps)
	}
}

func TestValidateBatchRejectsMalformed(t *testing.T) {
	good := encodeValidateBatchReq([]validateItem{rmcItem(sampleWireRMC(), "alice")})
	if _, err := decodeValidateBatchReq(append(good, 0x00)); err == nil {
		t.Error("trailing garbage accepted")
	}
	bad := bytes.Clone(good)
	bad[2] = 9 // item kind byte: only 1 (rmc) and 2 (appt) are valid
	if _, err := decodeValidateBatchReq(bad); err == nil {
		t.Error("bad item kind accepted")
	}
	for i := 1; i < len(good); i++ {
		if _, err := decodeValidateBatchReq(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	if _, err := decodeValidateBatchResp(good); err == nil {
		t.Error("request body accepted as response")
	}
}

// TestHandlerAnswersInKind: the validation endpoints answer binary
// requests with binary verdicts, and refuse a body that is not one.
func TestHandlerAnswersInKind(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	h := login.Handler()

	out, err := h("validate_rmc", rmcItem(rmc, sess.PrincipalID()).encodeBinary())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeValidateRespBinary(out)
	if err != nil {
		t.Fatalf("binary request answered with non-binary body: %v", err)
	}
	if !resp.Valid {
		t.Errorf("verdict = %+v, want valid", resp)
	}

	if _, err := h("validate_rmc", []byte(`{"principal":"x"}`)); err == nil {
		t.Error("JSON request body accepted")
	}

	// validate_batch answers per item, in order.
	forged := cert.RMC{Role: rmc.Role, Ref: cert.CRR{Issuer: "login", Serial: 99999}}
	out, err = h("validate_batch", encodeValidateBatchReq([]validateItem{
		rmcItem(rmc, sess.PrincipalID()),
		rmcItem(forged, sess.PrincipalID()),
	}))
	if err != nil {
		t.Fatal(err)
	}
	resps, err := decodeValidateBatchResp(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || !resps[0].Valid || resps[1].Valid {
		t.Errorf("batch verdicts = %+v, want [valid, invalid]", resps)
	}
}

// FuzzWireBinDecode: arbitrary bytes never panic any of the validation
// body decoders, and anything that decodes re-encodes to an equivalent
// value (fixed point after one normalisation).
func FuzzWireBinDecode(f *testing.F) {
	f.Add(rmcItem(sampleWireRMC(), "alice").encodeBinary())
	f.Add(apptItem(sampleWireAppt()).encodeBinary())
	f.Add(encodeValidateBatchReq([]validateItem{
		rmcItem(sampleWireRMC(), "alice"), apptItem(sampleWireAppt()),
	}))
	f.Add(encodeValidateBatchResp([]validateResponse{{Valid: true}, {Reason: "no"}}))
	f.Add([]byte{})
	f.Add([]byte{tagValidateBatchReq, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if it, err := decodeValidateReqBinary(data); err == nil {
			again, err := decodeValidateReqBinary(it.encodeBinary())
			if err != nil || !itemsEqual(again, it) {
				t.Fatalf("single request re-encode not stable: %v", err)
			}
		}
		if resp, err := decodeValidateRespBinary(data); err == nil {
			if again, err := decodeValidateRespBinary(encodeValidateRespBinary(resp)); err != nil || again != resp {
				t.Fatalf("response re-encode not stable: %v", err)
			}
		}
		if items, err := decodeValidateBatchReq(data); err == nil {
			again, err := decodeValidateBatchReq(encodeValidateBatchReq(items))
			if err != nil || len(again) != len(items) {
				t.Fatalf("batch request re-encode not stable: %v", err)
			}
			for i := range items {
				if !itemsEqual(again[i], items[i]) {
					t.Fatalf("batch item %d not stable", i)
				}
			}
		}
		if resps, err := decodeValidateBatchResp(data); err == nil {
			again, err := decodeValidateBatchResp(encodeValidateBatchResp(resps))
			if err != nil || !reflect.DeepEqual(again, resps) {
				t.Fatalf("batch response re-encode not stable: %v", err)
			}
		}
	})
}
