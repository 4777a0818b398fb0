package durable

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSweepStaleTmpOnOpen plants the orphan a crash inside writeSnapshot
// leaves behind and asserts recovery removes it (and that listGens never
// saw it as a generation).
func TestSweepStaleTmpOnOpen(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, snapName(7)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	wals, snaps, err := listGens(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wals) != 0 || len(snaps) != 0 {
		t.Fatalf("listGens counted the .tmp orphan: wals=%v snaps=%v", wals, snaps)
	}

	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale %s survived Open: stat err=%v", filepath.Base(tmp), err)
	}
}

// TestMirrorMatchesDisk drives appends and compactions and asserts the
// live mirror (what Compact now snapshots) always equals a full replay of
// the on-disk chain — the invariant the bounded-stall Compact rests on.
func TestMirrorMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck

	check := func(stage string) {
		if err := l.Sync(); err != nil {
			t.Fatalf("%s: sync: %v", stage, err)
		}
		live, err := l.Recovered()
		if err != nil {
			t.Fatalf("%s: recovered: %v", stage, err)
		}
		disk, err := ReadState(dir)
		if err != nil {
			t.Fatalf("%s: readState: %v", stage, err)
		}
		if got, want := mustJSON(t, live), mustJSON(t, disk); got != want {
			t.Fatalf("%s: mirror diverged from disk:\n mirror %s\n disk   %s", stage, got, want)
		}
	}

	for i := uint64(1); i <= 40; i++ {
		l.Append(Record{Op: OpCRIssue, Service: "svc", Serial: i, Subject: "role", Holder: "holder"})
		if i%5 == 0 {
			if err := l.AppendWait(Record{Op: OpCRRevoke, Service: "svc", Serial: i, Reason: "churn"}); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			if err := l.Compact(); err != nil {
				t.Fatalf("compact at %d: %v", i, err)
			}
			check("after compact")
		}
	}
	check("final")
}

// readSegmentRecs is ReadSegmentAt with the frames decoded, as a tailer
// on the far side of the replication stream would see them.
func readSegmentRecs(dir string, gen uint64, off int64) ([]Record, int64, error) {
	frames, _, next, err := ReadSegmentAt(dir, gen, off)
	if err != nil {
		return nil, next, err
	}
	recs, err := DecodeFrames(frames)
	return recs, next, err
}

// TestReadSegmentAtFollowsRotation tails a live log through appends and a
// compaction with ReadSegmentAt + ActiveGen, asserting every record is
// seen exactly once across the wal-* rotation.
func TestReadSegmentAtFollowsRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck

	var got []Record
	cur := Cursor{Gen: 1}
	drain := func() {
		for {
			recs, next, err := readSegmentRecs(dir, cur.Gen, cur.Off)
			if err == ErrNoSegment {
				// The segment was pruned by a compaction; the test drained
				// it fully beforehand (a real follower would reset from the
				// snapshot here), so resume at the oldest survivor.
				oldest, ok, oerr := OldestSegment(dir)
				if oerr != nil || !ok || oldest <= cur.Gen {
					t.Fatalf("segment %d pruned with no successor (oldest=%d ok=%v err=%v)", cur.Gen, oldest, ok, oerr)
				}
				cur = Cursor{Gen: oldest}
				continue
			}
			if err != nil {
				t.Fatalf("read %d@%d: %v", cur.Gen, cur.Off, err)
			}
			got = append(got, recs...)
			cur.Off = next
			if len(recs) > 0 {
				continue
			}
			gen, _ := l.ActiveGen()
			if cur.Gen >= gen {
				return
			}
			fi, err := os.Stat(filepath.Join(dir, walName(cur.Gen)))
			if err != nil {
				t.Fatalf("stat sealed segment %d: %v", cur.Gen, err)
			}
			if cur.Off < fi.Size() {
				t.Fatalf("sealed segment %d has bytes past a stalled cursor (%d < %d)", cur.Gen, cur.Off, fi.Size())
			}
			cur = Cursor{Gen: cur.Gen + 1}
		}
	}

	for i := uint64(1); i <= 30; i++ {
		l.Append(Record{Op: OpCRIssue, Service: "svc", Serial: i, Subject: "role", Holder: "holder"})
		if i == 10 || i == 20 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			drain()
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	drain()

	if len(got) != 30 {
		t.Fatalf("tailed %d records, want 30", len(got))
	}
	for i, r := range got {
		if r.Serial != uint64(i+1) {
			t.Fatalf("record %d has serial %d: lost or double-applied across rotation", i, r.Serial)
		}
	}
}

// TestNotifyCommitWakesTailer parks on the notify channel and asserts an
// append pokes it.
func TestNotifyCommitWakesTailer(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close() //nolint:errcheck

	ch := make(chan struct{}, 1)
	l.NotifyCommit(ch)
	defer l.StopNotify(ch)

	l.Append(Record{Op: OpCRIssue, Service: "svc", Serial: 1, Subject: "role", Holder: "holder"})
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no commit notification within 5s of an append")
	}
}

// TestEpochAdvancesAcrossOpens pins the identity semantics cursors rely
// on: the id is stable, the epoch strictly advances per Open.
func TestEpochAdvancesAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	l1, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, epoch := l1.ID(), l1.Epoch()
	if id == "" || epoch == 0 {
		t.Fatalf("missing identity: id=%q epoch=%d", id, epoch)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck
	if l2.ID() != id {
		t.Fatalf("journal id changed across opens: %q -> %q", id, l2.ID())
	}
	if l2.Epoch() <= epoch {
		t.Fatalf("epoch did not advance: %d -> %d", epoch, l2.Epoch())
	}
}
