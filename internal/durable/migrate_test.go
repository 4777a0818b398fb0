package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/sign"
)

// writeLegacyDir fabricates what the JSON journal left behind: an
// optional JSON snapshot of snapRecs at generation snapGen (one
// checksummed frame), and one headerless segment of JSON frames per
// entry of wals. It returns the state a correct migration must produce.
func writeLegacyDir(t *testing.T, dir string, snapGen uint64, snapRecs []Record, wals map[uint64][]Record) *State {
	t.Helper()
	want := NewState()
	if snapGen > 0 {
		for _, r := range snapRecs {
			want.Apply(r)
		}
		payload, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("snap-%08d.json", snapGen)
		if err := os.WriteFile(filepath.Join(dir, name), appendFrame(nil, payload), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	for gen := uint64(1); gen <= 16; gen++ {
		recs, ok := wals[gen]
		if !ok {
			continue
		}
		var buf []byte
		for _, r := range recs {
			payload, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf = appendFrame(buf, payload)
			if gen >= snapGen {
				want.Apply(r)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, walName(gen)), buf, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func legacyRecords() (snap, tail []Record) {
	snap = []Record{
		{Op: OpKeys, Service: "login", Retain: 2, Secrets: []sign.Secret{{KeyID: 3, Key: [32]byte{7}}}},
		{Op: OpCRIssue, Service: "login", Serial: 1, Subject: "login.user(a)", Holder: "a"},
		{Op: OpCRIssue, Service: "login", Serial: 2, Subject: "login.user(b)", Holder: "b \"q\" <x>"},
		{Op: OpFactAssert, Relation: "registered", Tuple: []names.Term{names.Atom("a"), names.Int(4)}},
	}
	tail = []Record{
		{Op: OpCRRevoke, Service: "login", Serial: 2, Reason: "left & gone"},
		{Op: OpCRIssue, Service: "files", Serial: 1, Subject: "files.reader(a)", Holder: "a"},
		{Op: OpCRRevoke, Service: "files", Serial: 9, Reason: "tombstone"},
	}
	return snap, tail
}

func dirListing(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fmt.Sprintf("%s:%d", e.Name(), fi.Size()))
	}
	return strings.Join(parts, " ")
}

// TestLegacyDirFailsClosedThenMigrates: Open on a JSON-journal directory
// refuses with an error that names the migrator and touches nothing (no
// empty state, no "torn tail" truncation of the JSON frames); migrate
// converts it once; Open then recovers exactly the legacy state.
func TestLegacyDirFailsClosedThenMigrates(t *testing.T) {
	snap, tail := legacyRecords()
	for name, build := range map[string]func(dir string) *State{
		"snapshot+journal": func(dir string) *State {
			return writeLegacyDir(t, dir, 3, snap, map[uint64][]Record{3: tail})
		},
		"journal only (never compacted)": func(dir string) *State {
			return writeLegacyDir(t, dir, 0, nil, map[uint64][]Record{1: append(append([]Record(nil), snap...), tail...)})
		},
		"clean shutdown (snapshot + empty journal)": func(dir string) *State {
			return writeLegacyDir(t, dir, 2, append(append([]Record(nil), snap...), tail...), map[uint64][]Record{2: nil})
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := build(dir)
			before := dirListing(t, dir)

			_, err := Open(Options{Dir: dir})
			if !errors.Is(err, ErrLegacyFormat) {
				t.Fatalf("Open on a legacy dir = %v, want ErrLegacyFormat", err)
			}
			if cmd := "oasisctl state migrate -state-dir " + dir; !strings.Contains(err.Error(), cmd) {
				t.Errorf("error %q does not name %q", err, cmd)
			}
			if _, err := ReadState(dir); !errors.Is(err, ErrLegacyFormat) {
				t.Errorf("ReadState = %v, want ErrLegacyFormat", err)
			}
			if rep, err := Verify(dir); !errors.Is(err, ErrLegacyFormat) && (rep == nil || rep.OK) {
				t.Errorf("Verify passed a legacy dir: rep=%+v err=%v", rep, err)
			}
			// journal-id aside (Open mints it before looking), nothing moved.
			os.Remove(filepath.Join(dir, idFileName)) //nolint:errcheck
			if after := dirListing(t, dir); after != before {
				t.Fatalf("refused Open modified the directory:\n before %s\n after  %s", before, after)
			}

			rep, err := MigrateLegacy(dir, json.Unmarshal)
			if err != nil || !rep.Converted {
				t.Fatalf("migrate: rep=%+v err=%v", rep, err)
			}
			if left := dirListing(t, dir); strings.Contains(left, ".json") || strings.Contains(left, ".log") {
				t.Errorf("legacy files survive migration: %s", left)
			}
			again, err := MigrateLegacy(dir, json.Unmarshal)
			if err != nil || again.Converted {
				t.Fatalf("second migrate: rep=%+v err=%v, want a no-op", again, err)
			}

			l := openTestLog(t, dir)
			got, err := l.Recovered()
			if err != nil {
				t.Fatal(err)
			}
			sameState(t, got, want)
			// And the migrated directory is an ordinary one: it appends,
			// restarts and verifies.
			extra := Record{Op: OpCRRevoke, Service: "login", Serial: 1, Reason: "after migrate"}
			want.Apply(extra)
			if err := l.AppendWait(extra); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if vr, err := Verify(dir); err != nil || !vr.OK {
				t.Fatalf("verify after migrate: %+v %v", vr, err)
			}
			disk, err := ReadState(dir)
			if err != nil {
				t.Fatal(err)
			}
			sameState(t, disk, want)
			if noop, err := MigrateLegacy(dir, json.Unmarshal); err != nil || noop.Converted {
				t.Fatalf("migrate on a live v2 dir: rep=%+v err=%v, want a no-op", noop, err)
			}
		})
	}
}

// TestMigrateSurvivesItsOwnCrash reruns the migrator from every state a
// crash can leave it in: snapshot written but nothing deleted, and any
// prefix of the deletions done.
func TestMigrateSurvivesItsOwnCrash(t *testing.T) {
	snap, tail := legacyRecords()
	ref := t.TempDir()
	want := writeLegacyDir(t, ref, 3, snap, map[uint64][]Record{2: {snap[1]}, 3: tail})
	rep, err := MigrateLegacy(ref, json.Unmarshal)
	if err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(filepath.Join(ref, snapName(rep.SnapshotGen)))
	if err != nil {
		t.Fatal(err)
	}
	for deleted := 0; deleted < len(rep.Removed); deleted++ {
		dir := t.TempDir()
		writeLegacyDir(t, dir, 3, snap, map[uint64][]Record{2: {snap[1]}, 3: tail})
		if err := os.WriteFile(filepath.Join(dir, snapName(rep.SnapshotGen)), image, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, name := range rep.Removed[:deleted] {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := MigrateLegacy(dir, json.Unmarshal); err != nil {
			t.Fatalf("rerun after %d deletions: %v", deleted, err)
		}
		got, err := ReadState(dir)
		if err != nil {
			t.Fatalf("rerun after %d deletions: %v", deleted, err)
		}
		sameState(t, got, want)
	}
}

func TestMigrateRefusesLegacyDamageBelowTail(t *testing.T) {
	snap, tail := legacyRecords()
	dir := t.TempDir()
	writeLegacyDir(t, dir, 0, nil, map[uint64][]Record{1: snap, 2: tail})
	b, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, walName(1)), b, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := MigrateLegacy(dir, json.Unmarshal); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("migrate over damage below the tail = %v, want ErrCorrupt", err)
	}
}

// TestWrongMagicRefused: a file that does not start with this format's
// magic is refused at Open — a future version by number, anything else
// as legacy — and a snapshot with a foreign header is never loaded.
func TestWrongMagicRefused(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	if err := l.AppendWait(Record{Op: OpCRIssue, Service: "s", Serial: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, walName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(segmentMagic)-1] = formatVersion + 1
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("Open on a version-3 segment = %v", err)
	}
	if _, err := DecodeSnapshot(b); err == nil {
		t.Fatal("a journal segment decoded as a snapshot")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(b)) {
		t.Fatalf("refused segment was modified: %v %v", fi, err)
	}
}

// TestReplayStatsCoverHandOff: Elapsed and durable_replay_ns run through
// the first Recovered, not just Open.
func TestReplayStatsCoverHandOff(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir)
	for i := uint64(1); i <= 500; i++ {
		l.Append(Record{Op: OpCRIssue, Service: "s", Serial: i, Subject: "s.role(x)", Holder: "holder"})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l2, err := Open(Options{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close() //nolint:errcheck
	opened := l2.ReplayStats().Elapsed
	if got := reg.Value("durable_replay_records"); got != 500 {
		t.Errorf("durable_replay_records = %d, want 500", got)
	}
	if _, err := l2.Recovered(); err != nil {
		t.Fatal(err)
	}
	handed := l2.ReplayStats().Elapsed
	if handed <= opened {
		t.Errorf("Elapsed %v after Recovered, %v after Open: hand-off not counted", handed, opened)
	}
	if got := reg.Value("durable_replay_ns"); got != uint64(handed) {
		t.Errorf("durable_replay_ns = %d, want %d", got, handed)
	}
	if _, err := l2.Recovered(); err != nil {
		t.Fatal(err)
	}
	if again := l2.ReplayStats().Elapsed; again != handed {
		t.Errorf("a later Recovered moved Elapsed: %v -> %v", handed, again)
	}
}
