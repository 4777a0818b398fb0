package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/durable"
)

// TestSeqConcurrentChurn hammers one service with parallel activate/
// deactivate pairs through the sequencer and checks nothing is lost:
// every issued serial must end up revoked-but-known.
func TestSeqConcurrentChurn(t *testing.T) {
	w := newWorld(t)
	svc := w.service("login", `login.user <- env ok.`)
	alwaysTrue(svc, "ok")

	const workers, per = 8, 50
	serials := make([][]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rmc, err := svc.Activate(fmt.Sprintf("w%d-%d", g, i), role("login", "user"), Presented{})
				if err != nil {
					t.Error(err)
					return
				}
				serials[g] = append(serials[g], rmc.Ref.Serial)
				if !svc.Revoke(rmc.Ref.Serial, "logout") {
					t.Errorf("deactivate %d failed", rmc.Ref.Serial)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for g := range serials {
		for _, serial := range serials[g] {
			valid, exists := svc.CRStatus(serial)
			if valid || !exists {
				t.Fatalf("serial %d: status (%v,%v), want revoked tombstone", serial, valid, exists)
			}
		}
	}
	st := svc.Stats()
	if st.Activations != workers*per || st.Revocations != workers*per {
		t.Errorf("stats = %+v, want %d/%d", st, workers*per, workers*per)
	}
}

// TestSeqSubmitAfterClose checks the inline path: once Close has shut the
// sequencer, further mutations still apply directly rather than erroring,
// and each still reaches the journal with its durability class — a
// revocation waited on, an issue fire-and-forget.
func TestSeqSubmitAfterClose(t *testing.T) {
	w := newWorld(t)
	j := &captureJournal{}
	svc := w.service("login", `login.user <- env ok.`, func(c *Config) { c.Journal = j })
	alwaysTrue(svc, "ok")
	rmc, err := svc.Activate("p", role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	svc.seq.Close()
	if !svc.Revoke(rmc.Ref.Serial, "logout") {
		t.Fatal("deactivate after sequencer close failed")
	}
	if valid, exists := svc.CRStatus(rmc.Ref.Serial); valid || !exists {
		t.Fatalf("status = (%v,%v)", valid, exists)
	}
	if wait, ok := j.waitOf(durable.OpCRRevoke, rmc.Ref.Serial); !ok || !wait {
		t.Fatalf("inline revoke journaled = %v, wait = %v; want journaled with wait", ok, wait)
	}
	late, err := svc.Activate("q", role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	if wait, ok := j.waitOf(durable.OpCRIssue, late.Ref.Serial); !ok || wait {
		t.Fatalf("inline issue journaled = %v, wait = %v; want journaled without wait", ok, wait)
	}
}
