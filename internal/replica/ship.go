package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// ShipperConfig configures a leader-side journal shipper.
type ShipperConfig struct {
	// Log is the live journal to serve. Required.
	Log *durable.Log
	// Node names this leader in lease/status answers (free text).
	Node string
	// LeaseTTL is how long a granted write-proxy lease lasts; followers
	// renew at a fraction of it. Default 3s.
	LeaseTTL time.Duration
	// Heartbeat is the tick interval on caught-up streams; it bounds how
	// stale a healthy follower's last-contact clock can be. Default 1s.
	Heartbeat time.Duration
	// Obs receives the shipper metrics; nil disables them.
	Obs *obs.Registry
}

// Shipper serves a journal directory to followers: one goroutine per
// subscriber tails the on-disk generation chain, so a slow follower
// applies backpressure to nobody (it just reads older bytes) and the
// committer never waits on replication. Catch-up, rotation-following and
// reset-from-snapshot all fall out of the durable cursor helpers.
type Shipper struct {
	log      *durable.Log
	node     string
	leaseTTL time.Duration
	hbEvery  time.Duration

	subs         atomic.Int64
	recsShipped  *obs.Counter
	snapsShipped *obs.Counter
	resets       *obs.Counter
	leases       *obs.Counter
}

// NewShipper builds a shipper over log.
func NewShipper(cfg ShipperConfig) *Shipper {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 3 * time.Second
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = time.Second
	}
	s := &Shipper{
		log:          cfg.Log,
		node:         cfg.Node,
		leaseTTL:     cfg.LeaseTTL,
		hbEvery:      cfg.Heartbeat,
		recsShipped:  cfg.Obs.Counter("repl_ship_records_total"),
		snapsShipped: cfg.Obs.Counter("repl_ship_snapshots_total"),
		resets:       cfg.Obs.Counter("repl_ship_resets_total"),
		leases:       cfg.Obs.Counter("repl_ship_leases_total"),
	}
	cfg.Obs.Func("repl_ship_subscribers", func() uint64 {
		if n := s.subs.Load(); n > 0 {
			return uint64(n)
		}
		return 0
	})
	return s
}

// Register installs the replication service (stream + plain methods) on
// a wire server.
func (s *Shipper) Register(srv *rpc.TCPServer) {
	srv.RegisterStream(Service, MethodSubscribe, s.HandleSubscribe)
	srv.Register(Service, s.HandleCall)
}

// LeaseTTL reports the configured lease duration.
func (s *Shipper) LeaseTTL() time.Duration { return s.leaseTTL }

// Subscribers reports the live subscriber count.
func (s *Shipper) Subscribers() int64 { return s.subs.Load() }

// HandleCall serves the plain (non-stream) replication methods.
func (s *Shipper) HandleCall(method string, body []byte) ([]byte, error) {
	switch method {
	case MethodLease:
		s.leases.Inc()
		return json.Marshal(LeaseResponse{
			Node:      s.node,
			JournalID: s.log.ID(),
			Epoch:     s.log.Epoch(),
			TTLMillis: s.leaseTTL.Milliseconds(),
		})
	case MethodStatus:
		gen, size := s.log.ActiveGen()
		return json.Marshal(StatusResponse{
			Node:        s.node,
			JournalID:   s.log.ID(),
			Epoch:       s.log.Epoch(),
			Gen:         gen,
			Size:        size,
			Subscribers: s.subs.Load(),
		})
	default:
		return nil, fmt.Errorf("replica: unknown method %q", method)
	}
}

// HandleSubscribe is the subscribe_journal stream handler. The body is
// the follower's cursor (empty for "from scratch"); the returned stop is
// invoked by the transport when the subscriber's connection dies.
func (s *Shipper) HandleSubscribe(method string, body []byte, send func([]byte) error) (func(), error) {
	var cur durable.Cursor
	if len(body) > 0 {
		if err := json.Unmarshal(body, &cur); err != nil {
			return nil, fmt.Errorf("replica: bad cursor: %w", err)
		}
	}
	stop := make(chan struct{})
	var once sync.Once
	s.subs.Add(1)
	go s.run(cur, send, stop)
	return func() { once.Do(func() { close(stop) }) }, nil
}

// run is one subscriber's shipping loop.
func (s *Shipper) run(cur durable.Cursor, send func([]byte) error, stop chan struct{}) {
	defer s.subs.Add(-1)
	notify := make(chan struct{}, 1)
	s.log.NotifyCommit(notify)
	defer s.log.StopNotify(notify)
	dir := s.log.Dir()
	id, epoch := s.log.ID(), s.log.Epoch()

	// A cursor minted against a different journal identity — or a prior
	// epoch, whose torn tail recovery may have truncated after the
	// follower consumed it — addresses history this journal no longer
	// vouches for. Reset it from a snapshot.
	reset := cur.Gen == 0 || cur.ID != id || cur.Epoch != epoch
	if !reset {
		if !s.emit(send, Message{Kind: KindHello, Cursor: cur}) {
			return
		}
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		if reset {
			c, ok := s.sendSnapshot(send, stop)
			if !ok {
				return
			}
			cur, reset = c, false
		}
		frames, n, next, err := durable.ReadSegmentAt(dir, cur.Gen, cur.Off)
		switch {
		case err == nil:
		case errors.Is(err, durable.ErrNoSegment), errors.Is(err, durable.ErrCursorAhead):
			// Pruned under the cursor by a compaction, or history the
			// journal no longer has: start over from a snapshot.
			s.resets.Inc()
			reset = true
			continue
		default:
			// Transient I/O trouble: back off on the heartbeat tick
			// rather than spinning.
			if !s.wait(notify, stop, send, cur) {
				return
			}
			continue
		}
		cur.Off = next
		if n > 0 {
			// The committed bytes go out as they sit on disk; the journal
			// writes one record per frame, so frames count records.
			if !s.emit(send, Message{Kind: KindRecs, Cursor: cur, Body: frames}) {
				return
			}
			s.recsShipped.Add(uint64(n))
			continue
		}
		// Nothing intact at the cursor: either the generation rotated
		// under us, or we are genuinely caught up.
		activeGen, _ := s.log.ActiveGen()
		if cur.Gen < activeGen {
			size, serr := durable.SegmentSize(dir, cur.Gen)
			switch {
			case errors.Is(serr, durable.ErrNoSegment):
				s.resets.Inc()
				reset = true
			case serr != nil:
				if !s.wait(notify, stop, send, cur) {
					return
				}
			case cur.Off >= size:
				// Sealed and fully consumed: follow the rotation.
				cur = durable.Cursor{ID: cur.ID, Epoch: cur.Epoch, Gen: cur.Gen + 1, Off: durable.SegmentStart}
			default:
				// A sealed segment with undecodable bytes before its end
				// — only the active generation may carry a torn tail, so
				// the file is damaged. Fail safe via snapshot.
				s.resets.Inc()
				reset = true
			}
			continue
		}
		// Caught up on the active generation: park until the committer
		// pokes us, heartbeating so the follower can bound staleness.
		if !s.wait(notify, stop, send, cur) {
			return
		}
	}
}

// sendSnapshot ships the newest snapshot (or an empty state positioned
// at the oldest surviving segment) and returns the cursor to tail from.
func (s *Shipper) sendSnapshot(send func([]byte) error, stop chan struct{}) (durable.Cursor, bool) {
	dir := s.log.Dir()
	for {
		select {
		case <-stop:
			return durable.Cursor{}, false
		default:
		}
		gen, image, ok, err := durable.LatestSnapshot(dir)
		if err == nil && !ok {
			// No snapshot yet: the whole history is still in the wal
			// chain, so an empty state at the oldest segment covers it.
			gen, ok, err = durable.OldestSegment(dir)
		}
		if err != nil || !ok {
			// A listing error, or a directory with neither snapshots nor
			// segments (can only race a compaction's prune window):
			// retry after a beat.
			t := time.NewTimer(s.hbEvery)
			select {
			case <-stop:
				t.Stop()
				return durable.Cursor{}, false
			case <-t.C:
			}
			continue
		}
		cur := durable.Cursor{ID: s.log.ID(), Epoch: s.log.Epoch(), Gen: gen, Off: durable.SegmentStart}
		if !s.emit(send, Message{Kind: KindSnapshot, Cursor: cur, Body: image}) {
			return cur, false
		}
		s.snapsShipped.Inc()
		return cur, true
	}
}

// wait parks until a commit notification, the subscriber going away, or
// the heartbeat tick (which it forwards). Reports whether to continue.
func (s *Shipper) wait(notify, stop chan struct{}, send func([]byte) error, cur durable.Cursor) bool {
	t := time.NewTimer(s.hbEvery)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-notify:
		return true
	case <-t.C:
		return s.emit(send, Message{Kind: KindHB, Cursor: cur})
	}
}

// emit sends one stream message; false means the subscriber is gone.
func (s *Shipper) emit(send func([]byte) error, m Message) bool {
	return send(m.Encode()) == nil
}
