package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// MigrateReport says what MigrateLegacy did.
type MigrateReport struct {
	// Converted is false when the directory held no legacy files.
	Converted bool `json:"converted"`
	// SnapshotGen is the generation of the v2 snapshot now holding the
	// whole legacy history; the next Open appends to wal-<SnapshotGen>.
	SnapshotGen uint64 `json:"snapshot_gen,omitempty"`
	// Records counts the legacy journal records replayed into it.
	Records int `json:"records,omitempty"`
	// Removed lists the legacy files deleted.
	Removed []string `json:"removed,omitempty"`
}

type legacyFile struct {
	gen  uint64
	name string
}

// MigrateLegacy converts a state directory written before format
// version 2 — JSON records in the same checksummed frames, JSON
// snapshots — in place: it replays the legacy chain the way the old
// recovery did, writes the result as one v2 snapshot in a generation
// above every legacy file, then deletes the legacy files. unmarshal is
// encoding/json.Unmarshal, handed in by the one tool that still needs
// it so that nothing in this package can read JSON by accident.
//
// Every step is repeatable: the snapshot lands atomically before
// anything is deleted, a rerun that finds it only finishes the
// deletions, and a directory with no legacy files is left untouched.
// Run it with the daemon stopped.
func MigrateLegacy(dir string, unmarshal func([]byte, any) error) (MigrateReport, error) {
	var rep MigrateReport
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, err
	}
	var wals, snaps []uint64 // legacy generations, ascending (ReadDir sorts by name)
	var files []legacyFile   // all of them, for deletion
	var newGen uint64        // one above every legacy generation
	var v2 string            // a segment already in the new format, if any
	proven := false          // something only the JSON journal could have written
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), "snap-", legacySnapSuffix); ok {
			snaps, files, proven = append(snaps, gen), append(files, legacyFile{gen, e.Name()}), true
			newGen = max(newGen, gen+1)
		}
		if gen, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return rep, err
			}
			if bytes.HasPrefix(b, []byte(segmentMagic)) {
				v2 = e.Name()
				continue
			}
			// An empty headerless segment proves nothing: the JSON
			// journal left one after a clean shutdown, v2 after a torn
			// create.
			wals, files, proven = append(wals, gen), append(files, legacyFile{gen, e.Name()}), proven || len(b) > 0
			newGen = max(newGen, gen+1)
		}
	}
	if !proven {
		return rep, nil
	}
	if v2 != "" {
		return rep, fmt.Errorf("durable: %s mixes v2 segment %s with legacy files; refusing to guess which is current", dir, v2)
	}
	rep.Converted, rep.SnapshotGen = true, newGen

	if _, err := readSnapshot(dir, newGen, func(*Record) {}); err != nil {
		// No finished conversion from an earlier run: build it.
		st := NewState()
		var base uint64
		for i := len(snaps) - 1; i >= 0; i-- {
			name := fmt.Sprintf("snap-%08d%s", snaps[i], legacySnapSuffix)
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return rep, err
			}
			payload, rest, ok := nextFrame(b)
			loaded := NewState()
			if !ok || len(rest) != 0 || unmarshal(payload, loaded) != nil {
				continue // unreadable: fall back to the one before, as recovery did
			}
			st, base = loaded, snaps[i]
			break
		}
		for i, gen := range wals {
			if gen < base {
				continue
			}
			b, err := os.ReadFile(filepath.Join(dir, walName(gen)))
			if err != nil {
				return rep, err
			}
			for len(b) > 0 {
				payload, rest, ok := nextFrame(b)
				var r Record
				if !ok || unmarshal(payload, &r) != nil {
					if i != len(wals)-1 {
						return rep, fmt.Errorf("%w: legacy %s is damaged below the journal tail", ErrCorrupt, walName(gen))
					}
					break // torn tail of the newest generation: never committed
				}
				st.Apply(r)
				rep.Records++
				b = rest
			}
		}
		if err := writeSnapshot(dir, newGen, EncodeSnapshot(st)); err != nil {
			return rep, err
		}
	}

	// The highest generation goes last: it is what fixes newGen, so a
	// rerun after a crash in here still finds the snapshot above.
	sort.Slice(files, func(i, j int) bool { return files[i].gen < files[j].gen })
	for _, f := range files {
		if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
			return rep, err
		}
		rep.Removed = append(rep.Removed, f.name)
	}
	return rep, syncDir(dir)
}
