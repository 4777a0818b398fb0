package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
)

func openLog(t *testing.T, dir string) *durable.Log {
	t.Helper()
	l, err := durable.Open(durable.Options{Dir: dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// applier models the follower side of the subscribe_journal protocol
// without a network: it applies stream messages to a mirrored state and
// can sever the stream after a configured number of messages (the
// injected kill point).
type applier struct {
	mu        sync.Mutex
	state     *durable.State
	cur       durable.Cursor
	snapshots int
	seen      int
	killAfter int // 0 = never; >0 = fail send seen > killAfter
	killed    bool
}

var errInjectedKill = errors.New("injected stream kill")

func (a *applier) send(b []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seen++
	if a.killAfter > 0 && a.seen > a.killAfter {
		a.killed = true
		return errInjectedKill
	}
	m, err := DecodeMessage(b)
	if err != nil {
		return err
	}
	switch m.Kind {
	case KindSnapshot:
		st := durable.NewState()
		if len(m.Body) > 0 {
			if st, err = durable.DecodeSnapshot(m.Body); err != nil {
				return err
			}
		}
		a.state = st
		a.snapshots++
	case KindRecs:
		recs, err := durable.DecodeFrames(m.Body)
		if err != nil {
			return err
		}
		for _, r := range recs {
			a.state.Apply(r)
		}
	}
	a.cur = m.Cursor
	return nil
}

func (a *applier) cursor() durable.Cursor {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

func (a *applier) arm(kill int) {
	a.mu.Lock()
	a.seen, a.killAfter, a.killed = 0, kill, false
	a.mu.Unlock()
}

func (a *applier) hash() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return StateHash(a.state)
}

// subscribeApplier opens a direct (in-process) subscription for a.
func subscribeApplier(t *testing.T, s *Shipper, a *applier, cur durable.Cursor) func() {
	t.Helper()
	body, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := s.HandleSubscribe(MethodSubscribe, body, a.send)
	if err != nil {
		t.Fatal(err)
	}
	return stop
}

// waitCaughtUp polls until a's cursor reaches the log's committed end.
func waitCaughtUp(t *testing.T, l *durable.Log, a *applier) {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		gen, size := l.ActiveGen()
		c := a.cursor()
		if c.ID == l.ID() && c.Epoch == l.Epoch() && c.Gen == gen && c.Off == size {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: cursor %v, committed %d@%d", c, gen, size)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitSettled polls until the stream was either killed or caught up.
func waitSettled(t *testing.T, l *durable.Log, a *applier) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		a.mu.Lock()
		killed := a.killed
		c := a.cur
		a.mu.Unlock()
		gen, size := l.ActiveGen()
		if killed || (c.ID == l.ID() && c.Epoch == l.Epoch() && c.Gen == gen && c.Off == size) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("stream neither killed nor caught up")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitSubscribers(t *testing.T, s *Shipper, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Subscribers() != n {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber count stuck at %d, want %d", s.Subscribers(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkConverged asserts the applier's mirror equals a full replay of
// the leader's on-disk chain — the replication invariant.
func checkConverged(t *testing.T, dir string, a *applier, stage string) {
	t.Helper()
	disk, err := durable.ReadState(dir)
	if err != nil {
		t.Fatalf("%s: readState: %v", stage, err)
	}
	if got, want := a.hash(), StateHash(disk); got != want {
		t.Fatalf("%s: follower diverged from leader journal:\n follower %s\n leader   %s", stage, got, want)
	}
}

// TestShipperKillPointsConverge severs the journal stream after every
// possible message count across bursts of appends and compactions
// (generation rotations), resumes from the surviving cursor each time,
// and asserts the follower-side state always converges to a full replay
// of the leader's journal — no record lost, none double-applied (Apply
// idempotency makes a double visible as divergence after revocation
// interleavings).
func TestShipperKillPointsConverge(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	defer l.Close() //nolint:errcheck
	ship := NewShipper(ShipperConfig{Log: l, Heartbeat: 5 * time.Millisecond})
	a := &applier{state: durable.NewState()}

	serial := uint64(0)
	burst := func(n int) {
		for i := 0; i < n; i++ {
			serial++
			l.CRIssued("svc", serial, "svc.user", fmt.Sprintf("p%d", serial))
			if serial%3 == 0 {
				l.CRRevoked("svc", serial, "churn")
			}
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// Fresh subscribe from a zero cursor must arrive via snapshot.
	stop := subscribeApplier(t, ship, a, durable.Cursor{})
	burst(10)
	waitCaughtUp(t, l, a)
	if a.snapshots == 0 {
		t.Fatal("fresh subscription did not start from a snapshot")
	}
	checkConverged(t, dir, a, "initial catch-up")
	stop()
	waitSubscribers(t, ship, 0)

	for kill := 1; kill <= 12; kill++ {
		burst(4)
		if kill%3 == 0 {
			// Rotate mid-sequence: the cursor must follow wal-* rotation
			// (and survive its own generation being pruned).
			if err := l.Compact(); err != nil {
				t.Fatalf("compact at kill point %d: %v", kill, err)
			}
		}
		a.arm(kill)
		stop := subscribeApplier(t, ship, a, a.cursor())
		waitSettled(t, l, a)
		stop()
		waitSubscribers(t, ship, 0)

		// Resume from whatever cursor survived the kill; convergence is
		// required no matter where the stream died.
		a.arm(0)
		stop = subscribeApplier(t, ship, a, a.cursor())
		waitCaughtUp(t, l, a)
		checkConverged(t, dir, a, fmt.Sprintf("kill point %d", kill))
		stop()
		waitSubscribers(t, ship, 0)
	}
}

// TestShipperResetsOnLeaderRestart reopens the journal (epoch advance —
// recovery may have truncated a torn tail the follower already consumed)
// and asserts a resumed stale-epoch cursor is answered with a snapshot
// reset, converging to the restarted leader's state.
func TestShipperResetsOnLeaderRestart(t *testing.T) {
	dir := t.TempDir()
	l1 := openLog(t, dir)
	ship1 := NewShipper(ShipperConfig{Log: l1, Heartbeat: 5 * time.Millisecond})
	a := &applier{state: durable.NewState()}

	for s := uint64(1); s <= 8; s++ {
		l1.CRIssued("svc", s, "svc.user", "holder")
	}
	stop := subscribeApplier(t, ship1, a, durable.Cursor{})
	waitCaughtUp(t, l1, a)
	stop()
	waitSubscribers(t, ship1, 0)
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openLog(t, dir)
	defer l2.Close() //nolint:errcheck
	l2.CRRevoked("svc", 3, "post-restart")
	ship2 := NewShipper(ShipperConfig{Log: l2, Heartbeat: 5 * time.Millisecond})

	before := a.snapshots
	stop = subscribeApplier(t, ship2, a, a.cursor())
	waitCaughtUp(t, l2, a)
	defer stop()
	if a.snapshots <= before {
		t.Fatal("stale-epoch cursor was resumed verbatim; want snapshot reset")
	}
	checkConverged(t, dir, a, "after leader restart")
}

// TestShipperLeaseAndStatus pins the plain-method answers.
func TestShipperLeaseAndStatus(t *testing.T) {
	dir := t.TempDir()
	l := openLog(t, dir)
	defer l.Close() //nolint:errcheck
	ship := NewShipper(ShipperConfig{Log: l, Node: "L1", LeaseTTL: 250 * time.Millisecond})

	out, err := ship.HandleCall(MethodLease, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := json.Unmarshal(out, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.TTLMillis != 250 || lr.JournalID != l.ID() || lr.Epoch != l.Epoch() || lr.Node != "L1" {
		t.Fatalf("lease = %+v", lr)
	}

	out, err = ship.HandleCall(MethodStatus, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st StatusResponse
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.JournalID != l.ID() || st.Gen == 0 {
		t.Fatalf("status = %+v", st)
	}
	if _, err := ship.HandleCall("bogus", nil); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// FuzzDecodeMessage: stream bytes come off a socket; the envelope
// decoder must never panic, and what it accepts re-encodes to a message
// that decodes the same.
func FuzzDecodeMessage(f *testing.F) {
	f.Add(Message{Kind: KindHello, Cursor: durable.Cursor{ID: "abc", Epoch: 2, Gen: 3, Off: 8}}.Encode())
	f.Add(Message{Kind: KindRecs, Cursor: durable.Cursor{ID: "abc", Epoch: 1, Gen: 1, Off: 99}, Body: []byte("frames")}.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		again, err := DecodeMessage(m.Encode())
		if err != nil || again.Kind != m.Kind || again.Cursor != m.Cursor || string(again.Body) != string(m.Body) {
			t.Fatalf("re-encode changed the message: %+v -> %+v (%v)", m, again, err)
		}
	})
}
