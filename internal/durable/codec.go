package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/cert"
	"repro/internal/sign"
)

// The journal format, version 2 — one codec for journal segments,
// snapshots and the replication stream (which carries segment frames and
// snapshot images verbatim):
//
//	segment  := segmentMagic frame*
//	snapshot := snapshotMagic frame(n u64be) frame{n}
//	frame    := len u32be | crc32-IEEE(payload) u32be | payload
//	payload  := record+
//	record   := op byte | fields, per op:
//	  keys   svc | retain uvarint | n uvarint | n x (key id uvarint, key [32]byte)
//	  cr+    svc | serial uvarint | subject | holder
//	  cr-    svc | serial uvarint | reason
//	  appt+  svc | serial uvarint | certificate (cert.AppendAppointmentBinary)
//	  appt-  svc | serial uvarint | reason
//	  fact±  relation | terms (cert.AppendTermsBinary)
//
// Strings are uvarint-length-prefixed. The journal writes one record per
// frame, so a torn append loses whole records only; a snapshot packs many
// records per frame and leads with a count frame, so a snapshot cut short
// at a frame boundary cannot pass for a smaller state. A file that does
// not start with its magic is refused, never parsed.

const (
	// frameHeaderSize is the per-frame overhead: payload length and CRC.
	frameHeaderSize = 8
	// maxFrameSize bounds a single frame; anything larger in a file is
	// treated as damage rather than an allocation request.
	maxFrameSize = 16 << 20
	// SegmentStart is the offset of a segment's first frame — where a
	// tail cursor entering a generation begins.
	SegmentStart = int64(len(segmentMagic))
	// snapshotFrameTarget is the payload size at which the snapshot
	// encoder starts a new frame.
	snapshotFrameTarget = 256 << 10

	formatVersion = 2
	segmentMagic  = "OASWAL\x00\x02"
	snapshotMagic = "OASSNP\x00\x02"
)

var (
	// ErrCorrupt reports damage that replay cannot safely skip: a bad
	// frame below the journal tail, a frame that passes its checksum but
	// does not decode, a snapshot that is not whole.
	ErrCorrupt = errors.New("durable: corrupt journal record")
	// ErrLegacyFormat reports files written before format version 2 (the
	// JSON journal). They are never parsed by Open; `oasisctl state
	// migrate` rewrites them once.
	ErrLegacyFormat = errors.New("durable: pre-v2 (JSON) journal files")
)

// opCodes maps each journaled Op to its on-disk byte; index 0 is unused
// so a zeroed byte never decodes as a record.
var opCodes = [...]Op{1: OpKeys, 2: OpCRIssue, 3: OpCRRevoke, 4: OpApptIssue, 5: OpApptRevoke, 6: OpFactAssert, 7: OpFactRetract}

func opCode(op Op) byte {
	for c := 1; c < len(opCodes); c++ {
		if opCodes[c] == op {
			return byte(c)
		}
	}
	return 0
}

// AppendRecordBinary appends r's encoding to dst. Only the fields its
// Op defines are written. It fails, leaving dst as it was, for an
// unknown Op or an appointment issue without its certificate.
func AppendRecordBinary(dst []byte, r *Record) ([]byte, error) {
	code := opCode(r.Op)
	if code == 0 {
		return dst, fmt.Errorf("durable: cannot journal op %q", r.Op)
	}
	if r.Op == OpApptIssue && r.Appt == nil {
		return dst, fmt.Errorf("durable: appointment issue %d without its certificate", r.Serial)
	}
	dst = append(dst, code)
	switch r.Op {
	case OpFactAssert, OpFactRetract:
		dst = cert.AppendLenString(dst, r.Relation)
		return cert.AppendTermsBinary(dst, r.Tuple), nil
	}
	dst = cert.AppendLenString(dst, r.Service)
	switch r.Op {
	case OpKeys:
		dst = binary.AppendUvarint(dst, uint64(r.Retain))
		dst = binary.AppendUvarint(dst, uint64(len(r.Secrets)))
		for i := range r.Secrets {
			dst = binary.AppendUvarint(dst, uint64(r.Secrets[i].KeyID))
			dst = append(dst, r.Secrets[i].Key[:]...)
		}
		return dst, nil
	}
	dst = binary.AppendUvarint(dst, r.Serial)
	switch r.Op {
	case OpCRIssue:
		dst = cert.AppendLenString(dst, r.Subject)
		dst = cert.AppendLenString(dst, r.Holder)
	case OpCRRevoke, OpApptRevoke:
		dst = cert.AppendLenString(dst, r.Reason)
	case OpApptIssue:
		dst = cert.AppendAppointmentBinary(dst, *r.Appt)
	}
	return dst, nil
}

// maxSecrets bounds a decoded key ring so a corrupt count cannot drive a
// huge allocation; every secret also costs at least 33 input bytes.
const maxSecrets = 1 << 12

// readRecord decodes one record at r's cursor into rec, which it
// overwrites. Service and relation names go through intern: a journal
// repeats a handful of them in every record.
func readRecord(r *cert.BinReader, rec *Record, intern map[string]string) {
	code := r.Byte()
	if r.Err() != nil {
		return
	}
	if code == 0 || int(code) >= len(opCodes) {
		r.Fail()
		return
	}
	*rec = Record{Op: opCodes[code]}
	n := r.Uvarint()
	if n > uint64(len(r.Rest())) {
		r.Fail()
		return
	}
	raw := r.Raw(int(n))
	name, ok := intern[string(raw)] // no allocation for the lookup
	if !ok {
		name = string(raw)
		if intern != nil {
			intern[name] = name
		}
	}
	switch rec.Op {
	case OpFactAssert, OpFactRetract:
		rec.Relation = name
		rec.Tuple = r.Terms()
		return
	}
	rec.Service = name
	switch rec.Op {
	case OpKeys:
		rec.Retain = int(r.Uvarint())
		n := r.Uvarint()
		if n > maxSecrets || n*33 > uint64(len(r.Rest())) {
			r.Fail()
			return
		}
		if n > 0 {
			rec.Secrets = make([]sign.Secret, n)
		}
		for i := range rec.Secrets {
			rec.Secrets[i].KeyID = uint32(r.Uvarint())
			copy(rec.Secrets[i].Key[:], r.Raw(len(rec.Secrets[i].Key)))
		}
		return
	}
	rec.Serial = r.Uvarint()
	switch rec.Op {
	case OpCRIssue:
		rec.Subject = r.Str()
		rec.Holder = r.Str()
	case OpCRRevoke, OpApptRevoke:
		rec.Reason = r.Str()
	case OpApptIssue:
		a := r.Appointment()
		rec.Appt = &a
	}
}

// ReadRecordBinary decodes one record from the front of b and returns
// the remaining bytes. Malformed input is an error, never a panic.
func ReadRecordBinary(b []byte) (Record, []byte, error) {
	r := cert.NewBinReader(b)
	var rec Record
	readRecord(r, &rec, nil)
	if err := r.Err(); err != nil {
		return Record{}, nil, fmt.Errorf("decode journal record: %w", err)
	}
	return rec, r.Rest(), nil
}

// sealFrame fills in the header of the frame that starts at buf[start]
// and runs to the end of buf.
func sealFrame(buf []byte, start int) []byte {
	payload := buf[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// appendRecordFrame appends r as a one-record frame, the journal's unit
// of append. On an encode error buf is returned unchanged.
func appendRecordFrame(buf []byte, r *Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf, err := AppendRecordBinary(buf, r)
	if err != nil {
		return buf[:start], err
	}
	return sealFrame(buf, start), nil
}

// nextFrame splits the first frame off b. ok is false when b does not
// start with an intact frame — empty, cut short, a nonsense length or a
// checksum mismatch: the signatures of a torn append.
func nextFrame(b []byte) (payload, rest []byte, ok bool) {
	if len(b) < frameHeaderSize {
		return nil, b, false
	}
	size := binary.BigEndian.Uint32(b)
	if size == 0 || size > maxFrameSize || uint64(len(b)-frameHeaderSize) < uint64(size) {
		return nil, b, false
	}
	payload = b[frameHeaderSize : frameHeaderSize+int(size)]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:]) {
		return nil, b, false
	}
	return payload, b[frameHeaderSize+int(size):], true
}

// intactFrames returns the length of b's longest prefix of intact
// frames, and how many frames that is, without decoding them.
func intactFrames(b []byte) (good, frames int) {
	rest := b
	for {
		_, next, ok := nextFrame(rest)
		if !ok {
			return len(b) - len(rest), frames
		}
		rest = next
		frames++
	}
}

// scanFrames decodes b frame by frame, handing every record of every
// intact frame to apply in order. good is the length of the intact
// prefix; good < len(b) means what follows is torn. A frame that passes
// its checksum yet does not decode cannot be a torn write: that is
// ErrCorrupt, with good stopping in front of it.
func scanFrames(b []byte, apply func(*Record)) (records, frames, good int, err error) {
	intern := make(map[string]string)
	var rec Record
	rest := b
	for {
		payload, next, ok := nextFrame(rest)
		if !ok {
			return records, frames, len(b) - len(rest), nil
		}
		r := cert.NewBinReader(payload)
		for {
			readRecord(r, &rec, intern)
			if r.Err() != nil {
				return records, frames, len(b) - len(rest), fmt.Errorf("%w: checksummed frame at offset %d does not decode", ErrCorrupt, len(b)-len(rest))
			}
			apply(&rec)
			records++
			if len(r.Rest()) == 0 {
				break
			}
		}
		rest = next
		frames++
	}
}

// DecodeFrames decodes a run of journal frames — the body of a
// replication message — into records. Unlike recovery it tolerates no
// torn tail: the sender only ships intact frames, so anything else means
// the bytes were damaged in between and none of them may be applied.
func DecodeFrames(b []byte) ([]Record, error) {
	var recs []Record
	_, _, good, err := scanFrames(b, func(r *Record) { recs = append(recs, *r) })
	if err != nil {
		return nil, err
	}
	if good != len(b) {
		return nil, fmt.Errorf("%w: damaged frame at offset %d of %d", ErrCorrupt, good, len(b))
	}
	return recs, nil
}

// checkMagic validates the 8-byte header of a segment or snapshot image.
// short reports an image too small to hold one (a file still being
// created, or a torn create).
func checkMagic(b []byte, magic string) (short bool, err error) {
	if len(b) < len(magic) {
		return true, nil
	}
	if string(b[:len(magic)]) == magic {
		return false, nil
	}
	if string(b[:len(magic)-1]) == magic[:len(magic)-1] {
		return false, fmt.Errorf("durable: journal format version %d, this build reads version %d", b[len(magic)-1], formatVersion)
	}
	return false, ErrLegacyFormat
}

// EncodeSnapshot renders st as a snapshot image: the shortest record
// sequence that replays to st, in a canonical order (services, serials
// and fact keys ascending), so equal states encode to equal bytes.
func EncodeSnapshot(st *State) []byte {
	buf := append([]byte(snapshotMagic), make([]byte, frameHeaderSize+8)...) // count frame, sealed last
	frames := uint64(0)
	start := -1
	st.records(func(r *Record) {
		if start < 0 {
			start = len(buf)
			buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		}
		// A record rendered from a State has a known op and, for appt+,
		// a certificate: the encoder cannot fail here.
		buf, _ = AppendRecordBinary(buf, r)
		if len(buf)-start-frameHeaderSize >= snapshotFrameTarget {
			sealFrame(buf, start)
			frames++
			start = -1
		}
	})
	if start >= 0 {
		sealFrame(buf, start)
		frames++
	}
	count := buf[:len(snapshotMagic)+frameHeaderSize+8]
	binary.BigEndian.PutUint64(count[len(snapshotMagic)+frameHeaderSize:], frames)
	sealFrame(count, len(snapshotMagic))
	return buf
}

// records renders the state as journal records in canonical order.
func (st *State) records(emit func(*Record)) {
	svcNames := make([]string, 0, len(st.Services))
	for name := range st.Services {
		svcNames = append(svcNames, name)
	}
	sort.Strings(svcNames)
	var serials []uint64
	for _, name := range svcNames {
		ss := st.Services[name]
		// Always a keys record, even for an empty ring: it is what makes
		// the service exist in the replayed state.
		emit(&Record{Op: OpKeys, Service: name, Retain: ss.Retain, Secrets: ss.Secrets})
		serials = serials[:0]
		for serial := range ss.CRs {
			serials = append(serials, serial)
		}
		sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
		for _, serial := range serials {
			cr := ss.CRs[serial]
			emit(&Record{Op: OpCRIssue, Service: name, Serial: serial, Subject: cr.Subject, Holder: cr.Holder})
			if cr.Revoked {
				emit(&Record{Op: OpCRRevoke, Service: name, Serial: serial, Reason: cr.Reason})
			}
		}
		serials = serials[:0]
		for serial := range ss.Appts {
			serials = append(serials, serial)
		}
		sort.Slice(serials, func(i, j int) bool { return serials[i] < serials[j] })
		for _, serial := range serials {
			a := ss.Appts[serial]
			emit(&Record{Op: OpApptIssue, Service: name, Serial: serial, Appt: &a.Cert})
			if a.Revoked {
				emit(&Record{Op: OpApptRevoke, Service: name, Serial: serial, Reason: a.Reason})
			}
		}
	}
	keys := make([]string, 0, len(st.Facts))
	for key := range st.Facts {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		f := st.Facts[key]
		emit(&Record{Op: OpFactAssert, Relation: f.Relation, Tuple: f.Tuple})
	}
}

// scanSnapshot checks that b is a whole snapshot image — magic, count
// frame, exactly that many intact frames and nothing after them — and
// hands its records to apply in order. Records reach apply before the
// image is known to be whole: discard what they built on an error.
func scanSnapshot(b []byte, apply func(*Record)) error {
	short, err := checkMagic(b, snapshotMagic)
	if err != nil {
		return err
	}
	if short {
		return fmt.Errorf("%w: snapshot shorter than its header", ErrCorrupt)
	}
	count, rest, ok := nextFrame(b[len(snapshotMagic):])
	if !ok || len(count) != 8 {
		return fmt.Errorf("%w: snapshot count frame", ErrCorrupt)
	}
	_, frames, good, err := scanFrames(rest, apply)
	if err != nil {
		return err
	}
	if want := binary.BigEndian.Uint64(count); good != len(rest) || uint64(frames) != want {
		return fmt.Errorf("%w: snapshot holds %d intact frames (%d of %d bytes), header says %d", ErrCorrupt, frames, good, len(rest), want)
	}
	return nil
}

// DecodeSnapshot rebuilds the state a snapshot image encodes.
func DecodeSnapshot(b []byte) (*State, error) {
	st := NewState()
	if err := scanSnapshot(b, func(r *Record) { st.Apply(*r) }); err != nil {
		return nil, err
	}
	return st, nil
}
