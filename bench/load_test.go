package main

import (
	"errors"
	"testing"
	"time"
)

// An open loop times each request from when it was due: a stall in one
// request shows up as latency on the requests that were due during it,
// and the generator reports how late it ran.
func TestOpenLoopTimesFromDueTimeUnderStall(t *testing.T) {
	const (
		rate  = 1000.0
		n     = 60
		stall = 40 * time.Millisecond
	)
	res := runOpenSleep(1, rate, n, func(_, i int) bool {
		if i == 10 {
			time.Sleep(stall) // the system under test hangs on one request
		}
		return true
	}, time.Sleep)

	if res.N != n {
		t.Fatalf("sent %d of %d", res.N, n)
	}
	for i := range res.Due {
		if want := time.Duration(i) * time.Millisecond; res.Due[i] != want {
			t.Fatalf("request %d due at %v, want %v: the schedule adapted", i, res.Due[i], want)
		}
	}
	// Request 11 was due 1ms after request 10, which then held the only
	// worker for 40ms: it must be reported ~39ms late, and its latency —
	// measured from the due time — must include that wait although the
	// request itself took no time.
	if late := res.Late[11]; late < 30_000 {
		t.Errorf("request 11 reported %.0fµs late, want about 39000", late)
	}
	if res.Lat[11] < res.Late[11] {
		t.Errorf("latency %.0fµs is less than lateness %.0fµs: not timed from the due time", res.Lat[11], res.Late[11])
	}
	// The backlog drains: the schedule is 1ms apart and requests are
	// instant, so by the end the generator is on time again.
	if late := res.Late[n-1]; late > 20_000 {
		t.Errorf("last request still %.0fµs late: backlog did not drain", late)
	}
	if p99 := tail(res.Late, 0.99); p99 < 20_000 {
		t.Errorf("lateness p99 = %.0fµs does not show the stall", p99)
	}
	// A stall before the stalled request must not exist.
	if res.Lat[5] > 20_000 {
		t.Errorf("request 5 took %.0fµs; nothing had stalled yet", res.Lat[5])
	}
}

// The same holds when it is the pacer that stalls (the generator itself
// was descheduled): every request released late carries the lateness.
func TestOpenLoopReportsPacerStall(t *testing.T) {
	calls := 0
	res := runOpenSleep(2, 1000, 40, func(_, _ int) bool { return true }, func(d time.Duration) {
		calls++
		if calls == 5 {
			d += 30 * time.Millisecond
		}
		time.Sleep(d)
	})
	if p99 := tail(res.Late, 0.99); p99 < 20_000 {
		t.Errorf("lateness p99 = %.0fµs does not show the pacer stall", p99)
	}
	_, lat := res.okLat()
	if len(lat) != 40 {
		t.Errorf("%d successful of 40", len(lat))
	}
}

func TestOpenLoopDropsFailedLatencies(t *testing.T) {
	res := runOpenSleep(1, 10000, 20, func(_, i int) bool { return i%2 == 0 }, time.Sleep)
	due, lat := res.okLat()
	if len(lat) != 10 || len(due) != 10 {
		t.Errorf("okLat kept %d latencies, want 10: failures have no latency", len(lat))
	}
}

func TestClosedLoopCountsSuccesses(t *testing.T) {
	ok, elapsed := runClosed(2, 30*time.Millisecond, func(_, i int) bool {
		time.Sleep(time.Millisecond)
		return i%2 == 0
	})
	if ok == 0 || elapsed < 30*time.Millisecond {
		t.Errorf("ok=%d elapsed=%v", ok, elapsed)
	}
}

// The checker flags a positive verdict that follows an observed deny for
// the same serial at the same tier — a revocation coming back.
func TestCheckerFlagsStalePositiveAfterDeny(t *testing.T) {
	c := newChecker()
	if c.observe("edge", 7, true) {
		t.Fatal("valid before any deny is not stale: the revocation is still propagating")
	}
	if c.observe("edge", 7, false) {
		t.Fatal("a deny is never stale")
	}
	if c.observe("replica", 7, true) {
		t.Fatal("tiers are tracked apart: the replica has not denied serial 7")
	}
	if c.observe("edge", 8, true) {
		t.Fatal("serials are tracked apart")
	}
	if len(c.hardFailures()) != 0 || c.failed.Load() != 0 {
		t.Fatalf("nothing has failed yet: %v", c.hardFailures())
	}
	if !c.observe("edge", 7, true) {
		t.Fatal("valid after the edge denied serial 7 must be flagged")
	}
	if hf := c.hardFailures(); len(hf) != 1 {
		t.Fatalf("hard failures = %v, want one", hf)
	}
	if c.failed.Load() == 0 {
		t.Fatal("a stale positive must count as failed")
	}
}

func TestCheckerVerdictByClass(t *testing.T) {
	c := newChecker()
	for _, tc := range []struct {
		cl    class
		valid bool
		err   error
		ok    bool
	}{
		{classLive, true, nil, true},
		{classLive, false, nil, false}, // a live certificate refused
		{classRevoked, false, nil, true},
		{classRevoked, true, nil, false}, // a revoked certificate accepted
		{classTampered, false, nil, true},
		{classTampered, true, nil, false},
		{classLive, true, errors.New("shed"), false}, // refused, shed, timed out: all failed
	} {
		if got := c.verdict(tc.cl, tc.valid, tc.err); got != tc.ok {
			t.Errorf("class %d valid=%v err=%v: ok=%v, want %v", tc.cl, tc.valid, tc.err, got, tc.ok)
		}
	}
	if a, f := c.attempted.Load(), c.failed.Load(); a != 7 || f != 4 {
		t.Errorf("attempted %d failed %d, want 7 and 4", a, f)
	}
	if c.firstEr == nil {
		t.Error("first error not kept")
	}
}
