package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/names"
	"repro/internal/sign"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameState compares two states by canonical JSON (map keys sort, so the
// encoding is deterministic).
func sameState(t *testing.T, got, want *State) {
	t.Helper()
	g, w := mustJSON(t, got), mustJSON(t, want)
	if g != w {
		t.Fatalf("state mismatch:\n got  %s\n want %s", g, w)
	}
}

// appendFrame frames an arbitrary payload — what the journal does around
// an encoded record — so tests can write frames no encoder would.
func appendFrame(buf, payload []byte) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = append(buf, payload...)
	return sealFrame(buf, len(buf)-len(payload)-frameHeaderSize)
}

// recFrame encodes r as the one-record frame the journal would append.
func recFrame(t *testing.T, r Record) []byte {
	t.Helper()
	b, err := appendRecordFrame(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// splitFrames returns the payloads of buf's intact frame prefix, the
// offset just past it and whether bytes remain beyond it.
func splitFrames(buf []byte) (payloads [][]byte, goodOffset int64, truncated bool) {
	rest := buf
	for {
		p, next, ok := nextFrame(rest)
		if !ok {
			return payloads, int64(len(buf) - len(rest)), len(rest) > 0
		}
		payloads, rest = append(payloads, p), next
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{[]byte("one"), []byte(`{"op":"cr+"}`), bytes.Repeat([]byte("x"), 10_000)}
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	got, goodOffset, truncated := splitFrames(buf)
	if truncated {
		t.Fatalf("splitFrames: truncated=%v", truncated)
	}
	if goodOffset != int64(len(buf)) {
		t.Errorf("goodOffset = %d, want %d", goodOffset, len(buf))
	}
	if good, n := intactFrames(buf); good != len(buf) || n != len(payloads) {
		t.Errorf("intactFrames = %d bytes / %d frames, want %d / %d", good, n, len(buf), len(payloads))
	}
	if len(got) != len(payloads) {
		t.Fatalf("got %d payloads, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("payload %d mismatch", i)
		}
	}
}

func TestTruncatedTailDetected(t *testing.T) {
	intact := appendFrame(nil, []byte("first"))
	intactLen := int64(len(intact))
	full := appendFrame(intact, []byte("second-record-payload"))

	// Chop the second frame at every possible byte boundary (cutting at
	// exactly intactLen is a clean end, not truncation): the intact
	// prefix must always survive.
	for cut := intactLen + 1; cut < int64(len(full)); cut++ {
		got, goodOffset, truncated := splitFrames(full[:cut])
		if !truncated {
			t.Fatalf("cut=%d: truncation not detected", cut)
		}
		if goodOffset != intactLen || len(got) != 1 || string(got[0]) != "first" {
			t.Fatalf("cut=%d: goodOffset=%d payloads=%d", cut, goodOffset, len(got))
		}
	}
}

func TestChecksumMismatchIsTruncation(t *testing.T) {
	buf := appendFrame(nil, []byte("first"))
	buf = appendFrame(buf, []byte("second"))
	buf[len(buf)-1] ^= 0xff // corrupt the last payload byte
	got, _, truncated := splitFrames(buf)
	if !truncated {
		t.Fatalf("truncated=%v", truncated)
	}
	if len(got) != 1 {
		t.Fatalf("payloads = %d, want 1", len(got))
	}
}

func openTestLog(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, GroupWindow: -1}) // no batching delay in tests
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)

	want := NewState()
	recs := []Record{
		{Op: OpKeys, Service: "admin", Retain: 2, Secrets: []sign.Secret{{KeyID: 7, Key: [32]byte{1, 2, 3}}}},
		{Op: OpCRIssue, Service: "admin", Serial: 1, Subject: "admin.administrator", Holder: "alice"},
		{Op: OpCRIssue, Service: "admin", Serial: 2, Subject: "admin.administrator", Holder: "bob"},
		{Op: OpCRRevoke, Service: "admin", Serial: 2, Reason: "bob left"},
		{Op: OpFactAssert, Relation: "registered", Tuple: []names.Term{names.Atom("d1"), names.Atom("p1")}},
		{Op: OpFactAssert, Relation: "registered", Tuple: []names.Term{names.Atom("d1"), names.Atom("p2")}},
		{Op: OpFactRetract, Relation: "registered", Tuple: []names.Term{names.Atom("d1"), names.Atom("p1")}},
	}
	for i, r := range recs {
		want.Apply(r)
		if i%2 == 0 {
			l.Append(r)
		} else if err := l.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	live, err := l.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, live, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close() //nolint:errcheck
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if rs := l2.ReplayStats(); rs.Records != len(recs) || rs.TruncatedBytes != 0 {
		t.Errorf("replay stats = %+v", rs)
	}
}

func TestCompactionKeepsStateAndPrunesFiles(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	want := NewState()
	apply := func(r Record) {
		want.Apply(r)
		if err := l.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.r", Holder: "h"})
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	apply(Record{Op: OpCRRevoke, Service: "s", Serial: 1, Reason: "r"})
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 2, Subject: "s.r", Holder: "h2"})
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	apply(Record{Op: OpApptIssue, Service: "s", Serial: 9, Appt: &cert.AppointmentCertificate{
		Issuer: "s", Serial: 9, Kind: "employed_as", Params: []names.Term{names.Atom("st_marys"), names.Int(-3)},
		Holder: "dr \"j\" <jones> & co", AppointedBy: "hr/é", IssuedAt: time.Unix(1_000_000_000, 42), KeyID: 7, Sig: [32]byte{9, 8, 7},
	}})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	wals, snaps, err := listGens(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 1 || len(snaps) != 1 {
		t.Fatalf("after compaction: wals=%v snaps=%v, want one of each", wals, snaps)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close() //nolint:errcheck
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if rs := l2.ReplayStats(); !rs.SnapshotLoaded {
		t.Errorf("snapshot not loaded: %+v", rs)
	}
}

func TestCrashMidAppendTruncatesAndKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	want := NewState()
	r1 := Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.r", Holder: "h"}
	want.Apply(r1)
	if err := l.AppendWait(r1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a valid-looking header promising more
	// payload than was written.
	wals, _, err := listGens(dir)
	if err != nil || len(wals) != 1 {
		t.Fatalf("wals=%v err=%v", wals, err)
	}
	path := filepath.Join(dir, walName(wals[0]))
	torn := recFrame(t, Record{Op: OpCRRevoke, Service: "s", Serial: 1})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-5]); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck

	l2 := openTestLog(t, dir)
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want) // the torn revoke never happened
	if rs := l2.ReplayStats(); rs.TruncatedBytes != int64(len(torn)-5) {
		t.Errorf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, len(torn)-5)
	}

	// The reopened log must append cleanly past the truncation point.
	r2 := Record{Op: OpCRIssue, Service: "s", Serial: 2, Subject: "s.r", Holder: "h2"}
	want.Apply(r2)
	if err := l2.AppendWait(r2); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3 := openTestLog(t, dir)
	defer l3.Close() //nolint:errcheck
	got3, err := l3.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got3, want)
	if rs := l3.ReplayStats(); rs.TruncatedBytes != 0 {
		t.Errorf("second recovery still truncating: %+v", rs)
	}
}

func TestCorruptionBelowTailRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	if err := l.AppendWait(Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.r", Holder: "h"}); err != nil {
		t.Fatal(err)
	}
	// Rotate without deleting: Compact writes a snapshot too, so instead
	// fabricate a second generation by hand and damage the first.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	gen2 := append([]byte(segmentMagic), recFrame(t, Record{Op: OpCRIssue, Service: "s", Serial: 2, Subject: "s.r", Holder: "h2"})...)
	if err := os.WriteFile(filepath.Join(dir, walName(2)), gen2, 0o600); err != nil {
		t.Fatal(err)
	}
	// Damage gen 1 (now below the tail).
	path := filepath.Join(dir, walName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir}) // real group window: exercise batching
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				serial := uint64(w*perWorker + i + 1)
				if err := l.AppendWait(Record{
					Op: OpCRIssue, Service: "s", Serial: serial,
					Subject: "s.r", Holder: fmt.Sprintf("p%d", w),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close() //nolint:errcheck
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	ss := got.Services["s"]
	if ss == nil || len(ss.CRs) != workers*perWorker {
		t.Fatalf("recovered %d CRs, want %d", len(ss.CRs), workers*perWorker)
	}
}

// TestReplayMatchesLiveState is the property test: for random mutation
// histories with compactions interleaved, recovery reproduces the live
// mirror exactly — including after a crash-mid-append torn tail (which
// must equal the state with the torn suffix dropped).
func TestReplayMatchesLiveState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	relations := []string{"registered", "excluded", "on_duty"}
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		l := openTestLog(t, dir)
		want := NewState()
		n := 30 + rng.Intn(120)
		for i := 0; i < n; i++ {
			var r Record
			switch rng.Intn(6) {
			case 0:
				r = Record{Op: OpCRIssue, Service: "s", Serial: uint64(rng.Intn(20) + 1),
					Subject: "s.r", Holder: fmt.Sprintf("p%d", rng.Intn(5))}
			case 1:
				r = Record{Op: OpCRRevoke, Service: "s", Serial: uint64(rng.Intn(20) + 1), Reason: "r"}
			case 2:
				r = Record{Op: OpFactAssert, Relation: relations[rng.Intn(3)],
					Tuple: []names.Term{names.Atom(fmt.Sprintf("a%d", rng.Intn(6)))}}
			case 3:
				r = Record{Op: OpFactRetract, Relation: relations[rng.Intn(3)],
					Tuple: []names.Term{names.Atom(fmt.Sprintf("a%d", rng.Intn(6)))}}
			case 4:
				r = Record{Op: OpKeys, Service: "s", Retain: 1,
					Secrets: []sign.Secret{{KeyID: uint32(i)}}}
			case 5:
				r = Record{Op: OpApptRevoke, Service: "s", Serial: uint64(rng.Intn(8) + 1), Reason: "x"}
			}
			want.Apply(r)
			if rng.Intn(4) == 0 {
				if err := l.AppendWait(r); err != nil {
					t.Fatal(err)
				}
			} else {
				l.Append(r)
			}
			if rng.Intn(40) == 0 {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			// Crash mid-append: torn garbage on the active journal.
			wals, _, err := listGens(dir)
			if err != nil || len(wals) == 0 {
				t.Fatalf("wals=%v err=%v", wals, err)
			}
			f, err := os.OpenFile(filepath.Join(dir, walName(wals[len(wals)-1])), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			garbage := make([]byte, 1+rng.Intn(40))
			rng.Read(garbage)
			if _, err := f.Write(garbage); err != nil {
				t.Fatal(err)
			}
			f.Close() //nolint:errcheck
		}

		l2 := openTestLog(t, dir)
		got, err := l2.Recovered()
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, got, want)
		l2.Close() //nolint:errcheck
	}
}

func TestVerifyReportsTornTailAndCorruption(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	if err := l.AppendWait(Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.r", Holder: "h"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendWait(Record{Op: OpCRRevoke, Service: "s", Serial: 1, Reason: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.CRs != 1 || rep.RevokedCRs != 1 {
		t.Fatalf("clean dir: %+v", rep)
	}

	// Torn tail on the newest generation: still OK.
	wals, _, err := listGens(dir)
	if err != nil {
		t.Fatal(err)
	}
	active := filepath.Join(dir, walName(wals[len(wals)-1]))
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("torn tail flagged as corruption: %+v", rep)
	}
	tornSeen := false
	for _, s := range rep.Segments {
		if s.Truncated && s.TornBytes == 3 {
			tornSeen = true
		}
	}
	if !tornSeen {
		t.Fatalf("torn tail not reported: %+v", rep.Segments)
	}

	// A damaged snapshot must fail verification.
	_, snaps, err := listGens(dir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snaps=%v err=%v", snaps, err)
	}
	sp := filepath.Join(dir, snapName(snaps[len(snaps)-1]))
	b, err := os.ReadFile(sp)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(sp, b, 0o600); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatalf("corrupt snapshot passed verification: %+v", rep)
	}
}

func TestApplyIdempotentOverSnapshotOverlap(t *testing.T) {
	// The compaction protocol replays the sealed generation's records on
	// top of the snapshot that covers them; Apply must converge.
	base := []Record{
		{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.r", Holder: "h"},
		{Op: OpCRRevoke, Service: "s", Serial: 1, Reason: "gone"},
		{Op: OpFactAssert, Relation: "f", Tuple: []names.Term{names.Atom("a")}},
	}
	once := NewState()
	for _, r := range base {
		once.Apply(r)
	}
	twice := NewState()
	for _, r := range base {
		twice.Apply(r)
	}
	for _, r := range base { // replay the whole history again
		twice.Apply(r)
	}
	sameState(t, twice, once)
	// Specifically: re-applying an issue over a revocation keeps the
	// revocation (issue-then-revoke histories never resurrect).
	if cr := twice.Services["s"].CRs[1]; !cr.Revoked {
		t.Error("replayed issue resurrected a revoked CR")
	}
}
