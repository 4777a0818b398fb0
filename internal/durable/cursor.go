package durable

// Journal tailing: the replication layer (internal/replica) follows a
// live journal directory frame by frame — catch up from the newest
// snapshot, then read committed frames out of the active generation as
// the committer writes them. The helpers here are deliberately
// file-based rather than an in-memory event queue: a tailer that reads
// the same bytes recovery would replay can never observe a record the
// journal has not committed, a slow tailer applies backpressure to
// nobody, and resuming after a disconnect is just re-reading from a
// (generation, offset) cursor.

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Cursor addresses a position in a journal directory's generation chain.
type Cursor struct {
	// ID identifies the journal (random, minted the first time the
	// directory is opened) and Epoch counts Opens of it. A cursor whose
	// identity does not match the live journal's addresses a different
	// history — a wiped directory, or a restart whose recovery may have
	// truncated a torn tail the tailer already consumed — and must be
	// reset from a snapshot rather than resumed.
	ID    string `json:"id,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// Gen and Off locate the next unread byte: journal generation and
	// byte offset within wal-<gen> (SegmentStart is its first frame).
	Gen uint64 `json:"gen"`
	Off int64  `json:"off"`
}

func (c Cursor) String() string {
	return fmt.Sprintf("%s/%d@%d+%d", c.ID, c.Epoch, c.Gen, c.Off)
}

// idFileName holds the journal identity: "<hex id> <epoch>".
const idFileName = "journal-id"

// loadIdentity reads the journal's identity file, creating it on first
// open, and advances the epoch by one.
func loadIdentity(dir string) (id string, epoch uint64, err error) {
	path := filepath.Join(dir, idFileName)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		idStr, epochStr, ok := strings.Cut(strings.TrimSpace(string(raw)), " ")
		if ok {
			if e, perr := strconv.ParseUint(epochStr, 10, 64); perr == nil {
				id, epoch = idStr, e
			}
		}
	case os.IsNotExist(err):
	default:
		return "", 0, err
	}
	if id == "" {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", 0, err
		}
		id = hex.EncodeToString(b[:])
	}
	epoch++
	if err := os.WriteFile(path, []byte(fmt.Sprintf("%s %d\n", id, epoch)), 0o600); err != nil {
		return "", 0, err
	}
	if err := syncDir(dir); err != nil {
		return "", 0, err
	}
	return id, epoch, nil
}

// ErrNoSegment reports a cursor generation with no journal file behind
// it: pruned by a compaction (the tailer must reset from a snapshot) or
// not created yet.
var ErrNoSegment = errors.New("durable: no such journal segment")

// ErrCursorAhead reports a cursor offset beyond the end of its segment —
// a history the journal no longer has (recovery truncated a torn tail
// the tailer consumed before the crash). The tailer must reset from a
// snapshot.
var ErrCursorAhead = errors.New("durable: cursor beyond journal segment end")

// readSegmentChunkBytes bounds one ReadSegmentAt read so catching up a
// large segment streams in chunks instead of buffering it whole. A frame
// larger than the budget widens it (up to the frame-size cap) rather
// than wedging.
const readSegmentChunkBytes = 4 << 20

// ReadSegmentAt returns the intact frames of wal-<gen> from byte offset
// off on, verbatim — checksummed but not decoded, ready to be shipped or
// handed to DecodeFrames — and how many there are. off must sit on a
// frame boundary: SegmentStart (anything below it means "from the
// start") or a next returned by an earlier call. next is the offset just
// past the returned frames; a torn or still-being-written tail simply
// ends the read at the last intact frame (no frames means nothing new
// yet), exactly as recovery would treat it. Safe to call while a Log is
// appending to the segment: appends only ever extend the file, so a
// reader sees either a complete frame or a partial tail it stops in
// front of.
func ReadSegmentAt(dir string, gen uint64, off int64) (frames []byte, n int, next int64, err error) {
	f, err := os.Open(filepath.Join(dir, walName(gen)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, off, ErrNoSegment
		}
		return nil, 0, off, err
	}
	defer f.Close() //nolint:errcheck // read-only
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, off, err
	}
	// A tailer only ever reads the directory of a live Log, whose
	// segments Open has checked or created: the header is skipped, not
	// re-proven (and may still be on its way to a brand-new segment).
	off = max(off, SegmentStart)
	if fi.Size() < SegmentStart {
		return nil, 0, off, nil
	}
	if off > fi.Size() {
		return nil, 0, off, ErrCursorAhead
	}
	for budget := int64(readSegmentChunkBytes); ; budget *= 4 {
		buf := make([]byte, min(budget, fi.Size()-off))
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, 0, off, err
		}
		good, n := intactFrames(buf)
		// No intact frame in the chunk: nothing new, a torn tail, or one
		// frame bigger than the budget (its cut-off read looks the same
		// as a torn tail) — widen until the chunk covers the remainder
		// or the largest legal frame, then conclude nothing is there.
		if n > 0 || int64(len(buf)) == fi.Size()-off || budget >= maxFrameSize+frameHeaderSize {
			return buf[:good], n, off + int64(good), nil
		}
	}
}

// SegmentSize reports the current on-disk size of wal-<gen>, so a tailer
// parked at the end of a sealed generation can tell "fully consumed,
// advance to the next generation" from "bytes remain that did not decode"
// (which on a sealed segment means the file is damaged).
func SegmentSize(dir string, gen uint64) (int64, error) {
	fi, err := os.Stat(filepath.Join(dir, walName(gen)))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, ErrNoSegment
		}
		return 0, err
	}
	return fi.Size(), nil
}

// LatestSnapshot returns the image of the newest readable snapshot in
// dir, verbatim and already proven to decode. gen is the journal
// generation the snapshot seals — tail-follow resumes at
// Cursor{Gen: gen, Off: SegmentStart}. ok is false when no snapshot
// exists (resume from the oldest segment with an empty state).
func LatestSnapshot(dir string) (gen uint64, image []byte, ok bool, err error) {
	_, snaps, err := listGens(dir)
	if err != nil {
		return 0, nil, false, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		if image, serr := readSnapshot(dir, snaps[i], func(*Record) {}); serr == nil {
			return snaps[i], image, true, nil
		}
	}
	return 0, nil, false, nil
}

// OldestSegment reports the lowest on-disk journal generation; ok is
// false when the directory has no journal files at all.
func OldestSegment(dir string) (gen uint64, ok bool, err error) {
	wals, _, err := listGens(dir)
	if err != nil {
		return 0, false, err
	}
	if len(wals) == 0 {
		return 0, false, nil
	}
	return wals[0], true, nil
}

// ReadState replays the on-disk chain of dir into a State without
// touching any live Log — the offline authority replication convergence
// is checked against. The journal should be quiescent (flushed, no
// appends in flight) for an exact answer; a torn tail on the active
// generation is tolerated exactly as recovery tolerates it.
func ReadState(dir string) (*State, error) {
	c, err := loadChain(dir)
	return c.state, err
}
