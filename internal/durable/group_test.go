package durable

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/names"
)

// AppendGroup must place the group's records contiguously and in order
// on disk even while other appenders race.
func TestAppendGroupContiguous(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NoSync: true, GroupWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	const groups = 50
	var wg sync.WaitGroup
	// Noise: interleaved single appends racing the groups. Waited
	// appends, so the noise producer can't outrun the committer.
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = l.AppendWait(Record{Op: OpFactAssert, Service: "noise", Relation: "r", Tuple: []names.Term{names.Atom("x")}})
		}
	}()
	for g := 0; g < groups; g++ {
		recs := []Record{
			{Op: OpCRIssue, Service: "svc", Serial: uint64(g*3 + 1), Subject: "role(a)", Holder: "p"},
			{Op: OpCRIssue, Service: "svc", Serial: uint64(g*3 + 2), Subject: "role(a)", Holder: "p"},
			{Op: OpCRRevoke, Service: "svc", Serial: uint64(g*3 + 1), Reason: "test"},
		}
		if err := l.AppendGroup(recs, true); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	gen, _ := l.ActiveGen()
	recs, _, err := readSegmentRecs(l.Dir(), gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Extract the svc records; every group of three must appear
	// adjacent (no noise record between members) and in order.
	for i := 0; i < len(recs); i++ {
		if recs[i].Service != "svc" {
			continue
		}
		if i+2 >= len(recs) {
			t.Fatalf("truncated group at record %d", i)
		}
		g := (recs[i].Serial - 1) / 3
		want := []struct {
			op     Op
			serial uint64
		}{
			{OpCRIssue, g*3 + 1}, {OpCRIssue, g*3 + 2}, {OpCRRevoke, g*3 + 1},
		}
		for j, w := range want {
			r := recs[i+j]
			if r.Service != "svc" || r.Op != w.op || r.Serial != w.serial {
				t.Fatalf("group %d broken at member %d: got %s %s serial=%d", g, j, r.Service, r.Op, r.Serial)
			}
		}
		i += 2
	}
}

// A waited group must be durable when AppendGroup returns: the state
// mirror has applied it and the bytes are fsynced.
func TestAppendGroupWaitDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GroupWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Op: OpCRIssue, Service: "svc", Serial: 1, Subject: "role(a)", Holder: "p"},
		{Op: OpCRRevoke, Service: "svc", Serial: 1, Reason: "bye"},
	}
	if err := l.AppendGroup(recs, true); err != nil {
		t.Fatal(err)
	}
	st, err := l.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	svc := st.Services["svc"]
	if svc == nil || len(svc.CRs) != 1 || !svc.CRs[1].Revoked {
		t.Fatalf("mirror missing group effect: %+v", svc)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: both records must replay.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st2, err := l2.Recovered()
	if err != nil {
		t.Fatal(err)
	}
	svc2 := st2.Services["svc"]
	if svc2 == nil || svc2.CRs[1] == nil || !svc2.CRs[1].Revoked {
		t.Fatalf("group not durable across reopen: %+v", svc2)
	}
}

// An empty group is a no-op; a group on a closed log errors.
func TestAppendGroupEdges(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGroup(nil, true); err != nil {
		t.Fatalf("empty group: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	err = l.AppendGroup([]Record{{Op: OpFactAssert, Service: "s", Relation: "r", Tuple: []names.Term{names.Atom("x")}}}, true)
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("closed log: got %v", err)
	}
}

// A waited group must not pay the full group-commit window: the urgent
// poke cuts the committer's nap short. With a deliberately huge window
// the wait would otherwise take >1s.
func TestAppendGroupSkipsWindow(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), NoSync: true, GroupWindow: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	start := time.Now()
	err = l.AppendGroup([]Record{
		{Op: OpCRRevoke, Service: "svc", Serial: 1, Reason: "now"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("waited group paid the window nap: %v", d)
	}
}
