package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitUntil polls cond until it holds or the deadline passes. Auto
// compaction runs on the committer goroutine after the triggering flush
// returns, so tests observe it asynchronously.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func snapCount(t *testing.T, dir string) int {
	t.Helper()
	_, snaps, err := listGens(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(snaps)
}

func TestAutoCompactBytesThreshold(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: dir, GroupWindow: -1, AutoCompactBytes: 1024, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := NewState()
	for i := uint64(1); i <= 64; i++ {
		r := Record{Op: OpCRIssue, Service: "s", Serial: i, Subject: "s.role", Holder: fmt.Sprintf("holder-%03d", i)}
		want.Apply(r)
		if err := l.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "byte-threshold auto compaction", func() bool { return snapCount(t, dir) > 0 })
	waitUntil(t, "active generation to shrink below the threshold", func() bool { return l.JournalSize() < 1024 })
	// The counter moves only after Compact returns, which can trail the
	// snapshot file appearing on disk.
	waitUntil(t, "durable_autocompactions_total > 0", func() bool {
		return reg.Counter("durable_autocompactions_total").Value() > 0
	})
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
	if rs := l2.ReplayStats(); !rs.SnapshotLoaded {
		t.Errorf("recovery after live compaction did not load a snapshot: %+v", rs)
	}
}

func TestAutoCompactGarbageThreshold(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(Options{Dir: dir, GroupWindow: -1, AutoCompactGarbage: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := NewState()
	apply := func(r Record) {
		want.Apply(r)
		if err := l.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 3; i++ {
		apply(Record{Op: OpCRIssue, Service: "s", Serial: i, Subject: "s.role", Holder: "h"})
		apply(Record{Op: OpCRRevoke, Service: "s", Serial: i, Reason: "churn"})
	}
	// Issues are not garbage: three revocations sit below the threshold,
	// the fourth trips it.
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 4, Subject: "s.role", Holder: "h"})
	apply(Record{Op: OpCRRevoke, Service: "s", Serial: 4, Reason: "churn"})
	waitUntil(t, "garbage-threshold auto compaction", func() bool { return snapCount(t, dir) > 0 })
	waitUntil(t, "durable_autocompactions_total > 0", func() bool {
		return reg.Counter("durable_autocompactions_total").Value() > 0
	})
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
}

// TestCrashAfterRotateBeforeSnapshot covers the first live-compaction
// crash window: the new journal generation was created but the daemon
// died before the snapshot landed. Recovery must replay the full chain —
// sealed generation plus the (empty) new one — as if the compaction had
// never started.
func TestCrashAfterRotateBeforeSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	want := NewState()
	apply := func(r Record) {
		want.Apply(r)
		if err := l.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.role", Holder: "a"})
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 2, Subject: "s.role", Holder: "b"})
	apply(Record{Op: OpCRRevoke, Service: "s", Serial: 1, Reason: "left"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: generation 2 exists, no snapshot was written.
	f, err := os.OpenFile(filepath.Join(dir, walName(2)), os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck

	l2 := openTestLog(t, dir)
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if rs := l2.ReplayStats(); rs.SnapshotLoaded {
		t.Errorf("no snapshot exists, yet one loaded: %+v", rs)
	}
	// The interrupted compaction must be re-runnable on the recovered log.
	apply = func(r Record) {
		want.Apply(r)
		if err := l2.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 3, Subject: "s.role", Holder: "c"})
	if err := l2.Compact(); err != nil {
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
}

// TestCrashAfterSnapshotBeforePrune covers the second crash window: the
// snapshot landed but the daemon died before pruning the sealed
// generation. Recovery starts from the snapshot and must not double-apply
// the stale generation it still finds on disk.
func TestCrashAfterSnapshotBeforePrune(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	want := NewState()
	apply := func(r Record) {
		want.Apply(r)
		if err := l.AppendWait(r); err != nil {
			t.Fatal(err)
		}
	}
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.role", Holder: "a"})
	apply(Record{Op: OpCRRevoke, Service: "s", Serial: 1, Reason: "left"})
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	apply(Record{Op: OpCRIssue, Service: "s", Serial: 2, Subject: "s.role", Holder: "b"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect the pruned generation, as if the crash hit between the
	// snapshot rename and the unlink.
	if err := os.WriteFile(filepath.Join(dir, walName(1)), sealed, 0o600); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, dir)
	defer l2.Close() //nolint:errcheck
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
	if rs := l2.ReplayStats(); !rs.SnapshotLoaded || rs.SnapshotGen != 2 {
		t.Errorf("replay stats = %+v, want snapshot gen 2 loaded", rs)
	}
}

// TestTornTailAfterLiveCompaction covers the third crash window: the
// compaction completed and the crash then tore a frame off the new active
// generation. Recovery must keep the snapshot, truncate the torn tail and
// keep appending.
func TestTornTailAfterLiveCompaction(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	want := NewState()
	r1 := Record{Op: OpCRIssue, Service: "s", Serial: 1, Subject: "s.role", Holder: "a"}
	want.Apply(r1)
	if err := l.AppendWait(r1); err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	r2 := Record{Op: OpCRIssue, Service: "s", Serial: 2, Subject: "s.role", Holder: "b"}
	want.Apply(r2)
	if err := l.AppendWait(r2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	torn := recFrame(t, Record{Op: OpCRRevoke, Service: "s", Serial: 2})
	f, err := os.OpenFile(filepath.Join(dir, walName(2)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck

	l2 := openTestLog(t, dir)
	defer l2.Close() //nolint:errcheck
	got, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want) // the torn revoke never happened
	rs := l2.ReplayStats()
	if !rs.SnapshotLoaded {
		t.Errorf("snapshot not loaded: %+v", rs)
	}
	if rs.TruncatedBytes != int64(len(torn)-4) {
		t.Errorf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, len(torn)-4)
	}
}
