package replica

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// serialShards mirrors the per-serial shard count of the core sequencer
// (crShards). The ordering guarantee is per shard: mutations on the same
// serial shard flow through one apply loop, so their journal, broker and
// ship orders must agree; distinct shards may interleave freely.
const serialShards = 16

// revokeRecorder collects the credential-revocation serials a broker
// publishes, in publish order. Broker taps run synchronously in the
// publishing goroutine, so the recorded order is the true publish order.
type revokeRecorder struct {
	mu      sync.Mutex
	serials []uint64
}

func (r *revokeRecorder) attach(b *event.Broker) func() {
	return b.Tap(func(ev event.Event) {
		if ev.Kind != event.KindRevoked || !strings.HasPrefix(ev.Topic, "cr/") {
			return
		}
		_, num, ok := strings.Cut(ev.Subject, "#")
		if !ok {
			return
		}
		serial, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			return
		}
		r.mu.Lock()
		r.serials = append(r.serials, serial)
		r.mu.Unlock()
	})
}

func (r *revokeRecorder) snapshot() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.serials...)
}

// wait polls until the recorder has seen at least n distinct serials.
func (r *revokeRecorder) wait(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if len(dedupe(r.snapshot())) >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("recorder stuck at %d distinct revokes, want %d", len(dedupe(r.snapshot())), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dedupe keeps the first occurrence of each serial. A follower snapshot
// reset republishes every revoked entry it already knows (the edge-cache
// fail-safe), so later duplicates are expected; the first delivery of
// each serial is the one the ordering guarantee covers.
func dedupe(serials []uint64) []uint64 {
	seen := make(map[uint64]bool, len(serials))
	out := serials[:0:0]
	for _, s := range serials {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// byShard splits a serial sequence into its per-shard subsequences.
func byShard(serials []uint64) [][]uint64 {
	out := make([][]uint64, serialShards)
	for _, s := range serials {
		sh := s % serialShards
		out[sh] = append(out[sh], s)
	}
	return out
}

func sameOrder(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// journalRevokeOrder replays every surviving journal segment oldest to
// newest and returns the credential-revoke serials in on-disk order —
// the order recovery replays, the shipper ships, and a follower applies.
func journalRevokeOrder(t *testing.T, l *durable.Log) []uint64 {
	t.Helper()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	oldest, ok, err := durable.OldestSegment(l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return nil
	}
	active, _ := l.ActiveGen()
	var out []uint64
	for gen := oldest; gen <= active; gen++ {
		var off int64
		for {
			frames, _, next, err := durable.ReadSegmentAt(l.Dir(), gen, off)
			if err != nil {
				if errors.Is(err, durable.ErrNoSegment) {
					break
				}
				t.Fatalf("read gen %d: %v", gen, err)
			}
			recs, err := durable.DecodeFrames(frames)
			if err != nil {
				t.Fatalf("decode gen %d: %v", gen, err)
			}
			for _, r := range recs {
				if r.Op == durable.OpCRRevoke {
					out = append(out, r.Serial)
				}
			}
			if next == off {
				break
			}
			off = next
		}
	}
	return out
}

// churn issues and immediately revokes credentials from workers
// concurrent goroutines, per pairs each, and returns the number of
// revocations performed.
func churn(t *testing.T, svc *core.Service, workers, per int, tag string) int {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rmc, err := svc.Activate(fmt.Sprintf("%s-w%d-%d", tag, g, i),
					names.MustRole(names.MustRoleName("login", "user", 0)), core.Presented{})
				if err != nil {
					t.Error(err)
					return
				}
				if !svc.Revoke(rmc.Ref.Serial, "churn") {
					t.Errorf("revoke %d failed", rmc.Ref.Serial)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return workers * per
}

// TestOrderingInvariantAcrossCrashAndReset is the sequencer's end-to-end
// ordering property: for any concurrent interleaving of issue/revoke on
// one serial shard, the journal's on-disk record order, the leader
// broker's publish order, and the replication ship/apply order seen by a
// live follower are identical — and stay identical across a leader
// crash-recovery (journal reopen, state replay) and the follower
// snapshot reset the restart forces (epoch advance).
func TestOrderingInvariantAcrossCrashAndReset(t *testing.T) {
	tl := startTestLeader(t, 2*time.Second)
	leader := &revokeRecorder{}
	defer leader.attach(tl.broker)()

	// Follower with a tapped broker: its publish order is the ship/apply
	// order of the replicated stream.
	follower := &revokeRecorder{}
	fbroker := event.NewBroker()
	detach := follower.attach(fbroker)
	defer detach()
	pool := rpc.NewDirectoryPool(2*time.Second, 1)
	pool.Add(Service, tl.addr)
	f, err := NewFollower(FollowerConfig{
		Leader:      tl.addr,
		Broker:      fbroker,
		Caller:      pool,
		StaleAfter:  5 * time.Second,
		DialTimeout: time.Second,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Run()
	defer func() {
		f.Close()
		pool.Close()
		fbroker.Close()
	}()
	waitConverged(t, tl, f)

	// Phase A: concurrent churn against the first leader incarnation.
	total := churn(t, tl.svc, 8, 25, "a")

	waitConverged(t, tl, f)
	// Convergence is mirror-state equality; event publication trails it by
	// a hair (applyRecs publishes after updating the mirror). Wait until
	// every phase-A revocation has actually been delivered before cutting
	// the wire, so the crash cannot race the tail of the publish loop.
	follower.wait(t, total)

	// Leader crash: sever the wire and close the journal mid-history.
	tl.srv.Close()
	tl.svc.Close()
	if err := tl.log.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover on the same directory: replay the journal into a fresh
	// service (same broker, so the publish-order tap spans the crash).
	dlog, err := durable.Open(durable.Options{Dir: tl.dir, GroupWindow: -1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := dlog.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	ss := recovered.Services["login"]
	if ss == nil {
		t.Fatal("recovery lost the service state")
	}
	ring, err := signRing(ss)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := core.NewService(core.Config{
		Name:    "login",
		Policy:  policy.MustParse(`login.user <- env ok.`),
		Broker:  tl.broker,
		Journal: dlog,
		KeyRing: ring,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc2.Env().Register("ok", func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
	for serial, cr := range ss.CRs {
		if err := svc2.RestoreCR(serial, cr.Subject, cr.Holder, cr.Revoked, cr.Reason); err != nil {
			t.Fatal(err)
		}
	}
	ship2 := NewShipper(ShipperConfig{Log: dlog, Node: "L2", LeaseTTL: 2 * time.Second, Heartbeat: 20 * time.Millisecond})
	srv2 := rpc.NewTCPServer()
	ship2.Register(srv2)
	srv2.Register("login", svc2.Handler())
	ln, err := net.Listen("tcp", tl.addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", tl.addr, err)
	}
	go srv2.Serve(ln) //nolint:errcheck
	t.Cleanup(func() {
		srv2.Close()
		svc2.Close()
		dlog.Close() //nolint:errcheck
	})
	tl.log, tl.svc, tl.srv = dlog, svc2, srv2

	// Let the follower re-attach first: the epoch advanced, so its cursor
	// is rejected and it resets from a snapshot. Converging here means the
	// snapshot diff is empty (it had already applied everything), so every
	// phase-B event it publishes comes from the live stream, in ship
	// order.
	waitConverged(t, tl, f)

	// Phase B: concurrent churn against the recovered leader.
	total += churn(t, tl.svc, 8, 25, "b")

	waitConverged(t, tl, f)
	follower.wait(t, total)

	// Gather the three orders. The follower's raw stream contains the
	// snapshot-reset replay duplicates; first occurrences are the live
	// stream deliveries the guarantee covers.
	journalOrder := journalRevokeOrder(t, tl.log)
	leaderOrder := leader.snapshot()
	followerOrder := dedupe(follower.snapshot())

	if len(journalOrder) != total {
		t.Fatalf("journal has %d revokes, want %d", len(journalOrder), total)
	}
	if len(leaderOrder) != total {
		t.Fatalf("leader broker published %d revokes, want %d", len(leaderOrder), total)
	}
	if len(followerOrder) != total {
		t.Fatalf("follower delivered %d distinct revokes, want %d", len(followerOrder), total)
	}

	// Journal order == broker publish order, per serial shard.
	js, ls := byShard(journalOrder), byShard(leaderOrder)
	for sh := range js {
		if !sameOrder(js[sh], ls[sh]) {
			t.Errorf("shard %d: journal order %v != leader publish order %v", sh, js[sh], ls[sh])
		}
	}
	// Ship/apply order == journal order, globally: the follower applies
	// the very bytes the journal committed, segment by segment.
	if !sameOrder(journalOrder, followerOrder) {
		t.Errorf("follower apply order diverges from journal order:\n journal  %v\n follower %v", journalOrder, followerOrder)
	}
}
