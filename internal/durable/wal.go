package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Journal and snapshot files are generation-numbered: the daemon appends
// to wal-<gen>; compaction rotates to wal-<gen+1>, then writes
// snap-<gen+1> (which covers everything up to the rotation point), then
// deletes older generations. Recovery loads the newest readable snapshot
// and replays every journal generation at or above it, in order — replay
// is idempotent, so the overlap between a snapshot and the generation it
// sealed is harmless. The byte format of both is in codec.go.

func walName(gen uint64) string  { return fmt.Sprintf("wal-%08d.log", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%08d.bin", gen) }

// legacySnapSuffix marks a snapshot of the JSON journal.
const legacySnapSuffix = ".json"

// parseGen extracts the generation from a wal/snap file name, reporting
// whether the name matches the given prefix scheme.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	gen, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// legacyError names the file that gave a pre-v2 directory away and the
// command that converts it.
func legacyError(dir, name string) error {
	return fmt.Errorf("%w: %s; run `oasisctl state migrate -state-dir %s` once to convert them", ErrLegacyFormat, name, dir)
}

// listGens scans dir for wal and snapshot generations, each sorted
// ascending. A JSON-era snapshot makes the whole directory legacy: it is
// refused here, before anything reads a byte of it.
func listGens(dir string) (wals, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), "wal-", ".log"); ok {
			wals = append(wals, gen)
		}
		if gen, ok := parseGen(e.Name(), "snap-", ".bin"); ok {
			snaps = append(snaps, gen)
		}
		if _, ok := parseGen(e.Name(), "snap-", legacySnapSuffix); ok {
			return nil, nil, legacyError(dir, e.Name())
		}
	}
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return wals, snaps, nil
}

// openSegment opens wal-<gen> for appending, creating it when missing. A
// new (or emptied) file gets its magic written and — unless noSync —
// fsynced together with the directory entry before any record can
// follow, so a sealed generation always starts with a whole header.
func openSegment(dir string, gen uint64, noSync bool) (f *os.File, size int64, err error) {
	f, err = os.OpenFile(filepath.Join(dir, walName(gen)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o600)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			f.Close() //nolint:errcheck // the open or header write already failed
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	if fi.Size() > 0 {
		return f, fi.Size(), nil
	}
	if _, err = f.WriteString(segmentMagic); err != nil {
		return nil, 0, err
	}
	if !noSync {
		if err = f.Sync(); err != nil {
			return nil, 0, err
		}
		if err = syncDir(dir); err != nil {
			return nil, 0, err
		}
	}
	return f, SegmentStart, nil
}

// segmentScan is what one pass over a segment image found.
type segmentScan struct {
	records int
	good    int64 // offset just past the last intact frame; 0 = no whole header
	torn    int64 // bytes past good: a torn append
}

// scanSegment walks a whole segment image: magic, then frames, applying
// every record. A wrong magic is an error (legacy or unknown version); a
// frame that checksums but does not decode is ErrCorrupt.
func scanSegment(b []byte, apply func(*Record)) (segmentScan, error) {
	short, err := checkMagic(b, segmentMagic)
	if err != nil {
		return segmentScan{}, err
	}
	if short {
		return segmentScan{torn: int64(len(b))}, nil
	}
	records, _, good, err := scanFrames(b[SegmentStart:], apply)
	sc := segmentScan{records: records, good: SegmentStart + int64(good)}
	sc.torn = int64(len(b)) - sc.good
	return sc, err
}

// replaySegment reads wal-<gen> in one go and applies it to st. Only the
// newest generation may be torn; damage below it is ErrCorrupt.
func replaySegment(dir string, gen uint64, newest bool, st *State) (segmentScan, error) {
	b, err := os.ReadFile(filepath.Join(dir, walName(gen)))
	if err != nil {
		return segmentScan{}, err
	}
	sc, err := scanSegment(b, func(r *Record) { st.Apply(*r) })
	switch {
	case errors.Is(err, ErrLegacyFormat):
		return sc, legacyError(dir, walName(gen))
	case err != nil:
		return sc, fmt.Errorf("%s: %w", walName(gen), err)
	case (sc.torn > 0 || sc.good == 0) && !newest:
		return sc, fmt.Errorf("%w: %s is damaged below the journal tail", ErrCorrupt, walName(gen))
	}
	return sc, nil
}

// writeSnapshot atomically writes an encoded snapshot image as
// snap-<gen>: temp file, fsync, rename into place, fsync the directory so
// the rename is durable.
func writeSnapshot(dir string, gen uint64, image []byte) error {
	tmp := filepath.Join(dir, snapName(gen)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(image); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close() //nolint:errcheck
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapName(gen))); err != nil {
		return err
	}
	return syncDir(dir)
}

// readSnapshot reads snap-<gen>, proves the image whole and decodable by
// handing every record of it to apply, and returns the image.
func readSnapshot(dir string, gen uint64, apply func(*Record)) ([]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, snapName(gen)))
	if err != nil {
		return nil, err
	}
	if err := scanSnapshot(b, apply); err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", snapName(gen), err)
	}
	return b, nil
}

// sweepTmp removes leftover *.tmp files from dir. A crash between
// writeSnapshot's temp-file create and its rename leaves snap-*.bin.tmp
// behind forever — listGens ignores the suffix, so nothing ever read it,
// but nothing deleted it either and a crash-looping daemon would grow one
// orphan per attempt. Recovery is the natural sweep point: any .tmp here
// is by definition an abandoned write.
func sweepTmp(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncDir fsyncs a directory so recent creates/renames survive power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //nolint:errcheck // read-only handle
	return d.Sync()
}
