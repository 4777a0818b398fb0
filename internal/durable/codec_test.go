package durable

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/names"
	"repro/internal/sign"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current encoder")

// awkward is every string shape the JSON journal's fast path punted on.
const awkward = "q\"uo\\te <tag> & é世\x00\x1f"

// codecRecords is one record of every op, with the awkward cases: quotes,
// backslashes, <>&, non-ASCII and control bytes in strings, an appt+ with
// a full certificate, a key ring, and fact tuples of every term kind.
func codecRecords() []Record {
	everyKind := []names.Term{names.Var("X"), names.Atom("atom"), names.Str(awkward), names.Int(-1 << 40), names.Int(0)}
	return []Record{
		{Op: OpKeys, Service: "login", Retain: 3, Secrets: []sign.Secret{
			{KeyID: 1, Key: [32]byte{1, 2, 3}}, {KeyID: 1<<32 - 1, Key: [32]byte{31: 0xff}},
		}},
		{Op: OpKeys, Service: awkward},
		{Op: OpCRIssue, Service: "login", Serial: 1, Subject: "login.user(" + awkward + ")", Holder: awkward},
		{Op: OpCRIssue, Service: "", Serial: 1<<64 - 1},
		{Op: OpCRRevoke, Service: "login", Serial: 1, Reason: awkward},
		{Op: OpApptIssue, Service: "admin", Serial: 77, Appt: &cert.AppointmentCertificate{
			Issuer: "admin", Serial: 77, Kind: "employed_as_doctor", Params: everyKind,
			Holder: awkward, AppointedBy: "hr\\\"", IssuedAt: time.Unix(1_000_000_000, 42),
			ExpiresAt: time.Unix(2_000_000_000, 0), KeyID: 9, Sig: sign.Signature{0: 0xaa, 31: 0x55},
		}},
		{Op: OpApptIssue, Service: "admin", Serial: 78, Appt: &cert.AppointmentCertificate{}},
		{Op: OpApptRevoke, Service: "admin", Serial: 77, Reason: "left"},
		{Op: OpFactAssert, Relation: "registered", Tuple: everyKind},
		{Op: OpFactRetract, Relation: awkward, Tuple: nil},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range codecRecords() {
		b, err := AppendRecordBinary([]byte("prefix"), &want)
		if err != nil {
			t.Fatalf("%s: %v", want.Op, err)
		}
		got, rest, err := ReadRecordBinary(b[len("prefix"):])
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: err=%v rest=%d", want.Op, err, len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s round trip:\n got  %+v\n want %+v", want.Op, got, want)
		}
	}
}

func TestRecordEncodeRefusesWhatItCannotRepresent(t *testing.T) {
	for _, r := range []Record{
		{Op: "bogus", Service: "s"},
		{},
		{Op: OpApptIssue, Service: "s", Serial: 1}, // no certificate
	} {
		b, err := AppendRecordBinary([]byte("keep"), &r)
		if err == nil || string(b) != "keep" {
			t.Errorf("%+v: err=%v buf=%q, want an error and an untouched buffer", r, err, b)
		}
	}
}

// recordFromFuzz builds a record of the op sel picks, filling only the
// fields that op defines (the ones the codec carries).
func recordFromFuzz(sel uint8, serial uint64, s1, s2, s3 string, n int64, raw []byte) Record {
	terms := []names.Term{names.Atom(s2), names.Str(s3), names.Int(n), names.Var(s1)}[:int(sel/8)%5]
	if len(terms) == 0 {
		terms = nil
	}
	op := opCodes[1+int(sel)%(len(opCodes)-1)]
	switch op {
	case OpKeys:
		r := Record{Op: op, Service: s1, Retain: int(uint32(n))}
		for len(raw) >= 4 && len(r.Secrets) < 8 {
			var s sign.Secret
			s.KeyID = uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
			raw = raw[copy(s.Key[:], raw[4:])+4:]
			r.Secrets = append(r.Secrets, s)
		}
		return r
	case OpCRIssue:
		return Record{Op: op, Service: s1, Serial: serial, Subject: s2, Holder: s3}
	case OpCRRevoke, OpApptRevoke:
		return Record{Op: op, Service: s1, Serial: serial, Reason: s2}
	case OpApptIssue:
		a := cert.AppointmentCertificate{Issuer: s1, Serial: serial, Kind: s2, Params: terms, Holder: s3, AppointedBy: s1 + s2, KeyID: uint32(n)}
		if n != 0 {
			a.IssuedAt = time.Unix(0, n)
		}
		copy(a.Sig[:], raw)
		return Record{Op: op, Service: s1, Serial: serial ^ 1, Appt: &a}
	default:
		return Record{Op: op, Relation: s1, Tuple: terms}
	}
}

// FuzzJournalRecordRoundTrip checks both directions: every record the
// encoder accepts decodes to itself with nothing left over, and whatever
// the decoder accepts from arbitrary bytes survives a re-encode.
func FuzzJournalRecordRoundTrip(f *testing.F) {
	for i, r := range codecRecords() {
		b, _ := AppendRecordBinary(nil, &r)
		f.Add(uint8(i), r.Serial, r.Service, r.Subject, awkward, int64(i)-3, b)
	}
	f.Fuzz(func(t *testing.T, sel uint8, serial uint64, s1, s2, s3 string, n int64, raw []byte) {
		want := recordFromFuzz(sel, serial, s1, s2, s3, n, raw)
		b, err := AppendRecordBinary(nil, &want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, rest, err := ReadRecordBinary(b)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: err=%v rest=%d\n got  %+v\n want %+v", err, len(rest), got, want)
		}

		// raw as hostile input: never a panic; an accepted record is
		// stable under re-encoding.
		rec, _, err := ReadRecordBinary(raw)
		if err != nil {
			if !errors.Is(err, cert.ErrBinaryCodec) {
				t.Fatalf("decode error %v does not wrap ErrBinaryCodec", err)
			}
			return
		}
		again, err := AppendRecordBinary(nil, &rec)
		if err != nil {
			t.Fatalf("re-encode of decoded %+v: %v", rec, err)
		}
		rec2, rest, err := ReadRecordBinary(again)
		if err != nil || len(rest) != 0 || !reflect.DeepEqual(rec2, rec) {
			t.Fatalf("decoded record not stable: err=%v\n first  %+v\n second %+v", err, rec, rec2)
		}
	})
}

// goldenSegment is the fixed journal the golden files pin.
func goldenSegment(t testing.TB) []byte {
	b := []byte(segmentMagic)
	for _, r := range codecRecords() {
		var err error
		if b, err = appendRecordFrame(b, &r); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func goldenState() *State {
	st := NewState()
	for _, r := range codecRecords() {
		st.Apply(r)
	}
	return st
}

// TestGoldenFormat fails when the bytes the encoders produce change: an
// accidental format change must not pass for a refactor. Deliberate
// changes bump formatVersion and regenerate with -update.
func TestGoldenFormat(t *testing.T) {
	for name, got := range map[string][]byte{
		"wal-v2.golden":  goldenSegment(t),
		"snap-v2.golden": EncodeSnapshot(goldenState()),
	} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder output changed (%d bytes, golden %d)", name, len(got), len(want))
		}
	}

	// And the committed bytes still decode to what they were made from.
	b, err := os.ReadFile(filepath.Join("testdata", "wal-v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	sc, err := scanSegment(b, func(r *Record) { recs = append(recs, *r) })
	if err != nil || sc.torn != 0 || !reflect.DeepEqual(recs, codecRecords()) {
		t.Errorf("wal golden: err=%v scan=%+v records=%d", err, sc, len(recs))
	}
	b, err = os.ReadFile(filepath.Join("testdata", "snap-v2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, st, goldenState())
}

// FuzzReadSegment feeds arbitrary bytes after a valid magic to the
// reader recovery uses: it must return the intact prefix and flag the
// rest as torn (or refuse with ErrCorrupt) — never panic, and never
// produce a record from beyond the first bad frame.
func FuzzReadSegment(f *testing.F) {
	good := goldenSegment(f)[SegmentStart:]
	f.Add(good)
	f.Add(good[:len(good)-3])
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(appendFrame(nil, []byte{0xff, 1, 2})) // checksums, does not decode
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tail []byte) {
		b := append([]byte(segmentMagic), tail...)
		var recs []Record
		sc, err := scanSegment(b, func(r *Record) { recs = append(recs, *r) })
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		if sc.good < SegmentStart || sc.good+sc.torn != int64(len(b)) || sc.records != len(recs) {
			t.Fatalf("scan %+v inconsistent with %d bytes / %d records", sc, len(b), len(recs))
		}
		// Everything reported came from the intact prefix alone: scanning
		// just that prefix yields the same records and nothing torn.
		var prefix []Record
		psc, perr := scanSegment(b[:sc.good], func(r *Record) { prefix = append(prefix, *r) })
		if perr != nil || psc.torn != 0 || psc.good != sc.good || !reflect.DeepEqual(prefix, recs) {
			t.Fatalf("intact prefix rescans differently: err=%v scan=%+v want good=%d records=%d", perr, psc, sc.good, len(recs))
		}
		if sc.torn > 0 && err == nil {
			// What follows the prefix is not an intact frame.
			if _, _, ok := nextFrame(b[sc.good:]); ok {
				t.Fatalf("scan stopped at %d in front of an intact frame", sc.good)
			}
		}

		// The same bytes as the payload of a frame that does checksum —
		// the checksum is otherwise a wall the fuzzer rarely gets past.
		// Either every byte decodes as records or the frame is refused.
		if len(tail) == 0 || len(tail) > maxFrameSize {
			return
		}
		framed := appendFrame([]byte(segmentMagic), tail)
		fsc, ferr := scanSegment(framed, func(*Record) {})
		switch {
		case ferr == nil && (fsc.torn != 0 || fsc.records == 0):
			t.Fatalf("checksummed frame neither decoded nor refused: %+v", fsc)
		case ferr != nil && (!errors.Is(ferr, ErrCorrupt) || fsc.good != SegmentStart):
			t.Fatalf("refusal %v with scan %+v", ferr, fsc)
		}
	})
}

// FuzzReadSnapshot: arbitrary bytes never panic the snapshot decoder,
// and anything it accepts is a state the encoder reproduces.
func FuzzReadSnapshot(f *testing.F) {
	good := EncodeSnapshot(goldenState())
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(EncodeSnapshot(NewState()))
	f.Add([]byte(snapshotMagic))
	f.Add([]byte(segmentMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		// b as a whole image, and b as the records of a one-frame image
		// whose framing and checksums are right (see FuzzReadSegment).
		framed := appendFrame([]byte(snapshotMagic), []byte{0, 0, 0, 0, 0, 0, 0, 1})
		if len(b) > 0 && len(b) <= maxFrameSize {
			framed = appendFrame(framed, b)
		}
		for _, img := range [][]byte{b, framed} {
			st, err := DecodeSnapshot(img)
			if err != nil {
				continue
			}
			again, err := DecodeSnapshot(EncodeSnapshot(st))
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			sameState(t, again, st)
		}
	})
}

func TestSnapshotMustBeWhole(t *testing.T) {
	st := NewState()
	for i := uint64(1); i <= 20_000; i++ { // several frames
		st.Apply(Record{Op: OpCRIssue, Service: "s", Serial: i, Subject: "s.role(x)", Holder: "holder"})
	}
	img := EncodeSnapshot(st)
	if got, err := DecodeSnapshot(img); err != nil {
		t.Fatal(err)
	} else {
		sameState(t, got, st)
	}
	// Cut at every frame boundary: each prefix is made of intact frames
	// only, and must still be refused.
	frames := img[len(snapshotMagic):]
	for off := 0; off < len(frames); {
		if _, err := DecodeSnapshot(img[:len(snapshotMagic)+off]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot cut at frame boundary %d accepted: %v", off, err)
		}
		_, rest, ok := nextFrame(frames[off:])
		if !ok {
			t.Fatalf("encoder wrote a damaged frame at %d", off)
		}
		off = len(frames) - len(rest)
	}
	if _, err := DecodeSnapshot(append(bytes.Clone(img), 0)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}
