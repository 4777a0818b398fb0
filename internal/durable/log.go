package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/sign"
)

// DefaultGroupWindow is the group-commit batching window: an append waits
// at most this long for racers to pile into the same write.
const DefaultGroupWindow = 2 * time.Millisecond

// DefaultSyncLag bounds how stale the fsync may be for fire-and-forget
// appends: a batch with no waiter defers its fsync until the lag expires,
// so a sustained issue stream pays one fsync per lag window instead of
// one per group-commit window. Waiters (AppendWait), Sync, Compact and
// Close always force the fsync. The failure direction of the deferred
// window is fail-closed: a crash may forget up to SyncLag of issues,
// which after restart just means those certificates no longer validate.
const DefaultSyncLag = 20 * time.Millisecond

// Options configures a Log.
type Options struct {
	// Dir is the state directory; created if missing.
	Dir string
	// GroupWindow is the group-commit batching window (0 selects
	// DefaultGroupWindow; negative disables batching delay entirely).
	GroupWindow time.Duration
	// SyncLag bounds the deferred fsync for waiter-less batches (0
	// selects DefaultSyncLag; negative fsyncs every batch).
	SyncLag time.Duration
	// NoSync skips fsync on journal batches (tests and experiments that
	// measure CPU cost; a crash may then lose acknowledged records, so
	// the daemon never sets it).
	NoSync bool
	// AutoCompactBytes, when > 0, has the committer trigger a live
	// compaction (rotate + snapshot + prune, exactly Compact) once the
	// active journal generation exceeds this many bytes. Without it the
	// journal only shrinks at clean shutdown, so a long-lived daemon
	// under sustained issue/revoke churn replays an ever-growing log
	// after a crash. Appends enqueued during the compaction are delayed,
	// not lost (they take flushMu after it completes).
	AutoCompactBytes int64
	// AutoCompactGarbage, when > 0, triggers a live compaction once this
	// many superseding records (revocations, retractions) have been
	// appended since the last compaction — a churn-heavy workload can
	// fill the journal with tombstones long before the byte threshold.
	AutoCompactGarbage int
	// Obs, when set, registers the durable.append.* / durable.replay.*
	// counters and the fsync latency histogram.
	Obs *obs.Registry
}

// ReplayStats describes what recovery found.
type ReplayStats struct {
	SnapshotGen    uint64        // generation of the snapshot loaded (0 = none)
	SnapshotLoaded bool          //
	Records        int           // journal records replayed
	TruncatedBytes int64         // bytes discarded from a torn journal tail
	Elapsed        time.Duration // Open plus the first Recovered: replay through state hand-off
}

// Log is a daemon's durable state: the append-only journal plus the
// issuer state replayed from it at Open. One Log serves every service a
// daemon hosts (records carry the service name) and the shared fact
// store.
//
// Appends are acknowledged asynchronously (Append) or after the batch
// fsync (AppendWait); a background committer drains the queue once per
// group-commit window so concurrent mutators share one write, and defers
// the fsync of waiter-less batches by up to SyncLag so they share one
// fsync too. The
// journal file is the only authority — no live in-memory mirror is
// maintained, so the committer's per-record cost is one encode, and
// Compact/Recovered rebuild state from disk when they need it.
type Log struct {
	dir         string
	window      time.Duration
	syncLag     time.Duration
	noSync      bool
	autoBytes   int64
	autoGarbage int

	// mu guards the append queue and the closed flag; appends touch only
	// these, so the hot path never pays for encoding or IO. spare is the
	// previous batch's cleared slice, swapped in when flush steals the
	// queue so steady-state appends reuse its capacity.
	mu     sync.Mutex
	queue  []queued
	spare  []queued
	closed bool

	// flushMu serialises whole flushes — steal, encode, write — so racing
	// flush callers (committer, Sync, Compact) can never write batches to
	// the file in an order different from the one they were queued in. It
	// also guards the live mirror and the reusable encode buffer.
	flushMu sync.Mutex
	// state is the live mirror: replayed at Open, then kept current by
	// flushSync applying every batch it writes. Compact snapshots it
	// directly, so sealing a generation never re-reads the on-disk chain
	// while appends wait.
	state *State
	// mirrorBroken records a write error that left the mirror's relation
	// to the file unknown (a partial write may have committed a prefix of
	// the batch). While set, Compact and Recovered fall back to replaying
	// the chain from disk — the journal file stays the sole authority.
	mirrorBroken bool
	wbuf         []byte    // reusable batch encode buffer
	unsynced     bool      // bytes written since the last fsync
	lastSync     time.Time // when the journal was last fsynced
	garbage      int       // superseding records appended since the last compaction

	// compactMu serialises whole compactions. flushMu cannot: Compact
	// releases it before the snapshot write so appends keep flowing, and
	// two racing compactions (committer auto-trigger vs shutdown) would
	// otherwise interleave their rotate and prune.
	compactMu sync.Mutex

	// ioMu guards the journal file, its size and the generation; it is
	// only ever taken under flushMu or alone.
	ioMu sync.Mutex
	f    *os.File
	size int64
	gen  uint64

	// id and epoch are the journal identity (see Cursor); fixed at Open.
	id    string
	epoch uint64

	// notifyMu guards the commit-notification registry; tailers park on
	// their channel and are poked (non-blocking) after every batch write
	// and rotation.
	notifyMu sync.Mutex
	notify   map[chan struct{}]struct{}

	wake    chan struct{}
	urgent  chan struct{} // cuts the group-commit nap short: batch already formed upstream
	stop    chan struct{}
	wg      sync.WaitGroup
	lastErr error // guarded by mu

	replay    ReplayStats // guarded by flushMu once Open has returned
	handedOff bool        // the first Recovered has been timed into replay.Elapsed

	appendRecords *obs.Counter
	appendBatches *obs.Counter
	appendBytes   *obs.Counter
	appendErrors  *obs.Counter
	replayRecords *obs.Gauge
	replayNs      *obs.Gauge
	replayTrunc   *obs.Counter
	snapshots     *obs.Counter
	autoCompacts  *obs.Counter
	fsyncNs       *obs.Histogram
}

type queued struct {
	rec  Record
	errc chan error // nil for fire-and-forget appends
}

// Open recovers the durable state from dir (creating it when empty) and
// returns a Log appending to the newest journal generation. Recovery
// loads the newest readable snapshot, replays every journal generation at
// or above it in order, and truncates a torn tail (crash mid-append) off
// the active generation. Corruption anywhere else is refused rather than
// silently skipped.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: state dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o700); err != nil {
		return nil, err
	}
	window := opts.GroupWindow
	if window == 0 {
		window = DefaultGroupWindow
	}
	if window < 0 {
		window = 0
	}
	syncLag := opts.SyncLag
	if syncLag == 0 {
		syncLag = DefaultSyncLag
	}
	if syncLag < 0 {
		syncLag = 0
	}
	l := &Log{
		dir:         opts.Dir,
		window:      window,
		syncLag:     syncLag,
		noSync:      opts.NoSync,
		autoBytes:   opts.AutoCompactBytes,
		autoGarbage: opts.AutoCompactGarbage,
		state:       NewState(),
		wake:        make(chan struct{}, 1),
		urgent:      make(chan struct{}, 1),
		stop:        make(chan struct{}),

		appendRecords: opts.Obs.Counter("durable_append_records_total"),
		appendBatches: opts.Obs.Counter("durable_append_batches_total"),
		appendBytes:   opts.Obs.Counter("durable_append_bytes_total"),
		appendErrors:  opts.Obs.Counter("durable_append_errors_total"),
		replayRecords: opts.Obs.Gauge("durable_replay_records"),
		replayNs:      opts.Obs.Gauge("durable_replay_ns"),
		replayTrunc:   opts.Obs.Counter("durable_replay_truncated_records_total"),
		snapshots:     opts.Obs.Counter("durable_snapshot_writes_total"),
		autoCompacts:  opts.Obs.Counter("durable_autocompactions_total"),
		fsyncNs:       opts.Obs.Histogram("durable_fsync_ns", nil),
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.runCommitter()
	return l, nil
}

// recover rebuilds the mirror from snapshot + journals and opens the
// active journal generation for appending.
func (l *Log) recover() error {
	start := time.Now()
	// A crash inside writeSnapshot leaves its temp file behind; nothing
	// reads .tmp files, so recovery is where they get deleted.
	if err := sweepTmp(l.dir); err != nil {
		return err
	}
	id, epoch, err := loadIdentity(l.dir)
	if err != nil {
		return err
	}
	l.id, l.epoch = id, epoch

	c, err := loadChain(l.dir)
	if err != nil {
		return err
	}
	l.state, l.replay = c.state, c.stats
	if c.tail.torn > 0 {
		// A crash mid-append: discard the torn tail of the newest
		// generation (a cut-short header goes entirely; openSegment
		// writes a fresh one).
		l.replay.TruncatedBytes = c.tail.torn
		l.replayTrunc.Inc()
		if err := os.Truncate(filepath.Join(l.dir, walName(c.newest)), c.tail.good); err != nil {
			return fmt.Errorf("discard torn journal tail: %w", err)
		}
	}
	// Append to the newest generation; a snapshot newer than every
	// journal file (or a fresh directory, where generations start at 1)
	// opens a new one.
	active := max(c.newest, c.stats.SnapshotGen, 1)
	l.f, l.size, err = openSegment(l.dir, active, l.noSync)
	if err != nil {
		return err
	}
	l.gen = active
	l.replay.Elapsed = time.Since(start)
	l.replayRecords.Set(int64(l.replay.Records))
	l.replayNs.Set(int64(l.replay.Elapsed))
	return nil
}

// chain is what a read-only pass over a state directory found.
type chain struct {
	state  *State
	stats  ReplayStats
	newest uint64      // newest journal generation on disk (0 = none)
	tail   segmentScan // scan of that generation, when it was replayed
}

// loadChain is the read-only core of recovery: load the newest readable
// snapshot and replay every journal generation at or above it, in
// order, mutating nothing on disk. A torn tail is tolerated only on the
// newest generation; the caller must exclude concurrent writes (hold
// flushMu) for a consistent read.
func loadChain(dir string) (chain, error) {
	wals, snaps, err := listGens(dir)
	if err != nil {
		return chain{}, err
	}
	c := chain{state: NewState()}
	// Newest readable snapshot wins; an unreadable one falls back to the
	// previous generation (whose journals are only deleted after a
	// successful snapshot, so the fallback replays the full history).
	for i := len(snaps) - 1; i >= 0; i-- {
		st := NewState()
		if _, serr := readSnapshot(dir, snaps[i], func(r *Record) { st.Apply(*r) }); serr != nil {
			continue
		}
		c.state = st
		c.stats.SnapshotGen, c.stats.SnapshotLoaded = snaps[i], true
		break
	}
	if len(wals) > 0 {
		c.newest = wals[len(wals)-1]
	}
	for _, gen := range wals {
		if gen < c.stats.SnapshotGen {
			continue
		}
		sc, err := replaySegment(dir, gen, gen == c.newest, c.state)
		if err != nil {
			return chain{}, err
		}
		c.stats.Records += sc.records
		if gen == c.newest {
			c.tail = sc
		}
	}
	return c, nil
}

// ReplayStats reports what Open recovered. Elapsed runs from Open
// through the first Recovered call: replay is not over until the state
// has been handed to whoever rebuilds services from it.
func (l *Log) ReplayStats() ReplayStats {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.replay
}

// Recovered returns a deep copy of the journaled state — the replayed
// state plus anything appended since — for rebuilding services at boot.
// The live mirror answers directly; only after a write error (mirror and
// file divorced) does it re-read the journal, which is the authority.
func (l *Log) Recovered() (*State, error) {
	start := time.Now()
	l.flush() // everything queued must be on disk (or in the boot state)
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	var st *State
	if l.mirrorBroken {
		c, err := loadChain(l.dir)
		if err != nil {
			return nil, err
		}
		st = c.state
	} else {
		st = l.state.Clone()
	}
	if !l.handedOff {
		l.handedOff = true
		l.replay.Elapsed += time.Since(start)
		l.replayNs.Set(int64(l.replay.Elapsed))
	}
	return st, nil
}

// Append journals a record without waiting for it to reach disk: it is
// written by the next group commit and fsynced within SyncLag. The hot
// issue path uses this — the failure direction (a lost issue record) is
// fail-closed.
func (l *Log) Append(rec Record) { l.enqueue(rec, nil) }

// AppendWait journals a record and blocks until its batch has been
// written and fsynced. Revocations and appointment issues use this: a
// revocation must never be forgotten once acknowledged, and a long-lived
// appointment certificate should not be handed to its holder before the
// issuer can remember issuing it.
func (l *Log) AppendWait(rec Record) error {
	errc := make(chan error, 1)
	if !l.enqueue(rec, errc) {
		return fmt.Errorf("durable: log closed")
	}
	return <-errc
}

// AppendGroup journals recs as one contiguous run: the records occupy
// adjacent queue slots under a single lock hold, so they land on disk
// adjacently and in order (flush steals the whole queue and writes it
// in queue order). When wait is true the call blocks until the group's
// batch has been written and fsynced; it also pokes the committer's
// urgent channel so a pre-grouped batch skips the group-commit nap —
// the nap exists to let independent racers coalesce, and a sequencer
// batch already did that upstream. Callers pass the per-shard
// sequencer's batch output here; empty groups are a no-op.
func (l *Log) AppendGroup(recs []Record, wait bool) error {
	if len(recs) == 0 {
		return nil
	}
	var errc chan error
	if wait {
		errc = make(chan error, 1)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.appendErrors.Inc()
		return fmt.Errorf("durable: log closed")
	}
	wasEmpty := len(l.queue) == 0
	for i, rec := range recs {
		q := queued{rec: rec}
		if i == len(recs)-1 {
			q.errc = errc // one waiter for the whole group: flush errors the batch atomically
		}
		l.queue = append(l.queue, q)
	}
	l.mu.Unlock()
	if wasEmpty {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	if !wait {
		return nil
	}
	select {
	case l.urgent <- struct{}{}:
	default:
	}
	return <-errc
}

func (l *Log) enqueue(rec Record, errc chan error) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.appendErrors.Inc()
		return false
	}
	wasEmpty := len(l.queue) == 0
	l.queue = append(l.queue, queued{rec: rec, errc: errc})
	l.mu.Unlock()
	if wasEmpty { // the committer only needs the empty->non-empty edge
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return true
}

func (l *Log) runCommitter() {
	defer l.wg.Done()
	for {
		// A deferred fsync must land even if no more appends arrive:
		// arm a timer for the lag deadline whenever bytes are unsynced.
		var syncTimer <-chan time.Time
		if l.pendingSync() {
			syncTimer = time.After(l.syncDue())
		}
		select {
		case <-l.wake:
			if l.window > 0 {
				// Let racers join the batch — but an urgent poke
				// (pre-grouped batch with a waiter) skips the nap:
				// its coalescing already happened upstream. A stale
				// urgent token at worst shortens one nap.
				nap := time.NewTimer(l.window)
				select {
				case <-nap.C:
				case <-l.urgent:
					nap.Stop()
				case <-l.stop:
					nap.Stop()
					l.flushSync(true)
					return
				}
			}
			l.flush()
			l.maybeAutoCompact()
		case <-syncTimer:
			l.flushSync(true)
			l.maybeAutoCompact()
		case <-l.stop:
			l.flushSync(true)
			return
		}
	}
}

func (l *Log) pendingSync() bool {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return l.unsynced && !l.noSync
}

func (l *Log) syncDue() time.Duration {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	d := time.Until(l.lastSync.Add(l.syncLag))
	if d < 0 {
		d = 0
	}
	return d
}

// flush writes everything queued as one batch; flushSync(true) also
// forces the fsync. Serialised end to end by flushMu so batch order on
// disk always equals queue order.
//
// The fsync policy: a batch carrying a waiter fsyncs immediately (the
// waiter was promised durability); a waiter-less batch defers it until
// syncLag has passed since the last fsync, so a sustained stream of
// fire-and-forget issues shares one fsync per lag window.
func (l *Log) flush() { l.flushSync(false) }

func (l *Log) flushSync(force bool) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.Lock()
	batch := l.queue
	l.queue = l.spare
	l.spare = nil
	l.mu.Unlock()
	if len(batch) == 0 {
		if force && l.unsynced && !l.noSync {
			l.ioMu.Lock()
			start := time.Now()
			err := l.f.Sync()
			l.fsyncNs.ObserveSince(start)
			l.ioMu.Unlock()
			if err != nil {
				l.appendErrors.Inc()
				l.mu.Lock()
				l.lastErr = err
				l.mu.Unlock()
				return
			}
			l.unsynced, l.lastSync = false, time.Now()
		}
		return
	}

	buf := l.wbuf[:0]
	var encErr error
	for i := range batch {
		var err error
		if buf, err = appendRecordFrame(buf, &batch[i].rec); err != nil {
			encErr = err
			// Zero the record so the mirror apply below skips it too —
			// mirror and file must agree on what was committed.
			batch[i].rec = Record{}
		}
	}
	for i := range batch {
		switch batch[i].rec.Op {
		case OpCRRevoke, OpApptRevoke, OpFactRetract, OpKeys:
			// Superseding records: each shadows an earlier record (or, for
			// keys, the previous ring export), so it is journal garbage a
			// compaction would collapse into the snapshot.
			l.garbage++
		}
	}

	hasWaiter := false
	for i := range batch {
		if batch[i].errc != nil {
			hasWaiter = true
			break
		}
	}
	needSync := !l.noSync &&
		(force || hasWaiter || l.syncLag == 0 || time.Since(l.lastSync) >= l.syncLag)

	l.ioMu.Lock()
	_, err := l.f.Write(buf)
	if err == nil && needSync {
		start := time.Now()
		err = l.f.Sync()
		l.fsyncNs.ObserveSince(start)
	}
	if err == nil {
		l.size += int64(len(buf))
	}
	l.ioMu.Unlock()
	if err == nil {
		if needSync {
			l.unsynced, l.lastSync = false, time.Now()
		} else {
			l.unsynced = true
		}
		// The write landed: fold the batch into the live mirror (an
		// unencodable record was zeroed above and applies as a no-op) and
		// wake journal tailers.
		for i := range batch {
			l.state.Apply(batch[i].rec)
		}
		l.notifyCommit()
	} else {
		// A partial write may have committed a prefix of the batch; the
		// mirror can no longer claim to equal the file, so snapshot and
		// restore paths fall back to replaying the chain from disk.
		l.mirrorBroken = true
	}

	if err == nil {
		err = encErr
	}
	if err != nil {
		l.appendErrors.Inc()
		l.mu.Lock()
		l.lastErr = err
		l.mu.Unlock()
	}
	l.appendBatches.Inc()
	l.appendRecords.Add(uint64(len(batch)))
	l.appendBytes.Add(uint64(len(buf)))
	for _, q := range batch {
		if q.errc != nil {
			q.errc <- err
		}
	}

	// Recycle the buffers: the batch slice becomes the next spare
	// (cleared so it pins no records) and the encode buffer keeps its
	// grown capacity for the next window.
	l.wbuf = buf[:0]
	for i := range batch {
		batch[i] = queued{}
	}
	l.mu.Lock()
	if l.spare == nil || cap(batch) > cap(l.spare) {
		l.spare = batch[:0]
	}
	l.mu.Unlock()
}

// maybeAutoCompact runs a live compaction when a configured threshold is
// crossed. Called only from the committer goroutine after a flush, so at
// most one compaction is ever in flight and it never races another
// trigger. It must not hold flushMu: Compact takes it for the whole
// rotate-and-snapshot.
func (l *Log) maybeAutoCompact() {
	if l.autoBytes <= 0 && l.autoGarbage <= 0 {
		return
	}
	l.flushMu.Lock()
	garbage := l.garbage
	l.flushMu.Unlock()
	hit := (l.autoBytes > 0 && l.JournalSize() >= l.autoBytes) ||
		(l.autoGarbage > 0 && garbage >= l.autoGarbage)
	if !hit {
		return
	}
	if err := l.Compact(); err != nil {
		// The journal keeps appending to whichever generation is active;
		// the next flush retries the compaction. Surface the error the
		// same way write errors are surfaced.
		l.appendErrors.Inc()
		l.mu.Lock()
		l.lastErr = err
		l.mu.Unlock()
		return
	}
	l.autoCompacts.Inc()
}

// Sync forces everything queued onto disk, fsync included.
func (l *Log) Sync() error {
	l.flushSync(true)
	return l.Err()
}

// Err returns the most recent journal write error, if any. The engine
// keeps running on journal errors (in-memory state is still correct; only
// crash recovery is at risk), so the daemon surfaces this instead of
// failing requests.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// JournalSize reports the active journal generation's size in bytes.
func (l *Log) JournalSize() int64 {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.size
}

// Dir returns the journal directory, for tailers reading segments.
func (l *Log) Dir() string { return l.dir }

// ID returns the journal identity minted at the directory's first Open.
func (l *Log) ID() string { return l.id }

// Epoch counts Opens of this journal directory; it advances on every
// recovery, invalidating tail cursors that may have read past a
// truncated torn tail.
func (l *Log) Epoch() uint64 { return l.epoch }

// ActiveGen reports the generation currently being appended to and its
// size. A tailer at the end of a lower generation knows that generation
// is sealed and complete; a tailer at (gen, size) has consumed
// everything committed so far.
func (l *Log) ActiveGen() (gen uint64, size int64) {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.gen, l.size
}

// NotifyCommit registers ch for a non-blocking poke after every batch
// write and every rotation, so journal tailers wake without polling. Use
// a buffered channel (capacity 1): the signal coalesces, it does not
// count.
func (l *Log) NotifyCommit(ch chan struct{}) {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	if l.notify == nil {
		l.notify = make(map[chan struct{}]struct{})
	}
	l.notify[ch] = struct{}{}
}

// StopNotify deregisters ch.
func (l *Log) StopNotify(ch chan struct{}) {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	delete(l.notify, ch)
}

func (l *Log) notifyCommit() {
	l.notifyMu.Lock()
	for ch := range l.notify {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	l.notifyMu.Unlock()
}

// Compact seals the current journal generation behind a snapshot: rotate
// to a fresh generation, write the mirror as snap-<new gen>, then delete
// the older generations the snapshot now covers. Every crash window is
// safe: until the snapshot rename lands, recovery still sees the previous
// snapshot plus the complete journal chain.
//
// Appends stall only for the rotate plus one in-memory encode of the
// mirror: flushMu is released before the snapshot file is written and the
// old generations pruned. (An earlier version held flushMu while
// re-reading the entire on-disk chain and writing the snapshot, which
// froze every append for the whole compaction — fatal once follower
// catch-up traffic triggers compactions under load.)
func (l *Log) Compact() error {
	// compactMu serialises whole compactions; flushMu no longer can, and
	// the committer's auto-trigger may race a shutdown Compact.
	l.compactMu.Lock()
	defer l.compactMu.Unlock()

	l.flushSync(true) // queued records belong to the generation being sealed

	// flushMu for rotate-and-encode: concurrent flushes wait, so the
	// mirror encoded below covers exactly what reached the sealed
	// generation (lock order flushMu -> ioMu matches flush).
	l.flushMu.Lock()
	l.ioMu.Lock()
	newGen := l.gen + 1
	nf, size, err := openSegment(l.dir, newGen, l.noSync)
	if err != nil {
		l.ioMu.Unlock()
		l.flushMu.Unlock()
		return err
	}
	old := l.f
	oldGen := l.gen
	l.f, l.size, l.gen = nf, size, newGen
	old.Close() //nolint:errcheck // fully flushed by the flush above
	l.ioMu.Unlock()

	if l.mirrorBroken {
		// A past write error divorced mirror and file; the chain on disk
		// is the authority, so re-adopt it (the rare slow path — held
		// under flushMu like the pre-mirror Compact always was).
		c, rerr := loadChain(l.dir)
		if rerr != nil {
			l.flushMu.Unlock()
			return rerr
		}
		l.state = c.state
		l.mirrorBroken = false
	}
	image := EncodeSnapshot(l.state)
	garbageSealed := l.garbage
	l.flushMu.Unlock()
	// The stall is over: appends flow into the fresh generation while the
	// snapshot lands and old generations are pruned. Tailers parked at
	// the sealed generation's EOF get woken to follow the rotation.
	l.notifyCommit()

	if err := writeSnapshot(l.dir, newGen, image); err != nil {
		return err
	}
	l.snapshots.Inc()

	wals, snaps, err := listGens(l.dir)
	if err != nil {
		return err
	}
	for _, gen := range wals {
		if gen < newGen && gen <= oldGen {
			os.Remove(filepath.Join(l.dir, walName(gen))) //nolint:errcheck // best-effort GC
		}
	}
	for _, gen := range snaps {
		if gen < newGen {
			os.Remove(filepath.Join(l.dir, snapName(gen))) //nolint:errcheck // best-effort GC
		}
	}
	// The superseding records encoded into the snapshot no longer count
	// toward the garbage trigger; anything appended since the encode
	// keeps counting.
	l.flushMu.Lock()
	l.garbage -= garbageSealed
	l.flushMu.Unlock()
	return nil
}

// Close flushes the queue, stops the committer and closes the journal.
// It does not compact; the daemon compacts explicitly on clean shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()
	l.flushSync(true) // anything enqueued between the last drain and closed=true
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	return l.f.Close()
}

// --- mutation hooks -------------------------------------------------------
//
// These methods satisfy the engine's journaling interfaces (core.Journal
// and store.ChangeFunc) so one Log threads through every layer.

// CRIssued journals a credential-record issue (async: the failure
// direction of a lost issue is fail-closed denial after a crash).
func (l *Log) CRIssued(service string, serial uint64, subject, holder string) {
	l.Append(Record{Op: OpCRIssue, Service: service, Serial: serial, Subject: subject, Holder: holder})
}

// CRRevoked journals a credential-record revocation, durably: once the
// revocation has been published it must survive any crash.
func (l *Log) CRRevoked(service string, serial uint64, reason string) {
	if err := l.AppendWait(Record{Op: OpCRRevoke, Service: service, Serial: serial, Reason: reason}); err != nil {
		l.appendErrors.Inc()
	}
}

// ApptIssued journals an issued appointment certificate, durably: the
// certificate outlives sessions, so the issuer must remember it before
// the holder does.
func (l *Log) ApptIssued(service string, a cert.AppointmentCertificate) {
	if err := l.AppendWait(Record{Op: OpApptIssue, Service: service, Serial: a.Serial, Appt: &a}); err != nil {
		l.appendErrors.Inc()
	}
}

// ApptRevoked journals an appointment revocation, durably.
func (l *Log) ApptRevoked(service string, serial uint64, reason string) {
	if err := l.AppendWait(Record{Op: OpApptRevoke, Service: service, Serial: serial, Reason: reason}); err != nil {
		l.appendErrors.Inc()
	}
}

// KeysInstalled journals a service's signing secrets so certificates
// signed before a crash still verify after recovery.
func (l *Log) KeysInstalled(service string, retain int, secrets []sign.Secret) error {
	return l.AppendWait(Record{Op: OpKeys, Service: service, Retain: retain, Secrets: secrets})
}

// FactChanged journals a fact store mutation; register it as a store
// observer. Matches store.ChangeFunc.
func (l *Log) FactChanged(relation string, tuple []names.Term, added bool) {
	op := OpFactAssert
	if !added {
		op = OpFactRetract
	}
	l.Append(Record{Op: op, Relation: relation, Tuple: tuple})
}
