//go:build !race

package core

import "testing"

// Allocation budgets for the callback-validation hot path. A change that
// adds an allocation per validation fails here, in plain `go test`, not
// only in a full benchmark run. The race detector instruments
// allocations, so these run only in non-race builds.

// validateRMCHandlerAllocs is the validate_rmc handler's budget: binary
// request decode, local credential-record lookup, signature check and
// binary verdict encode for one locally issued RMC.
const validateRMCHandlerAllocs = 7

// batcherSingleAllocs is batcher.do's budget for a lone validation that
// departs as one single call (the transport stubbed out).
const batcherSingleAllocs = 6

func TestValidateRMCHandlerAllocBudget(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	sess := w.session()
	rmc, err := login.Activate(sess.PrincipalID(), role("login", "user"), Presented{})
	if err != nil {
		t.Fatal(err)
	}
	h := login.Handler()
	body := rmcItem(rmc, sess.PrincipalID()).encodeBinary()
	allocs := testing.AllocsPerRun(200, func() {
		out, err := h("validate_rmc", body)
		if err != nil || len(out) == 0 {
			t.Fatalf("validate_rmc = (%x, %v)", out, err)
		}
	})
	t.Logf("validate_rmc handler: %.0f allocs/op", allocs)
	if allocs > validateRMCHandlerAllocs {
		t.Errorf("validate_rmc handler allocates %.0f/op, budget %d", allocs, validateRMCHandlerAllocs)
	}
}

func TestBatcherSingleCallAllocBudget(t *testing.T) {
	valid := encodeValidateRespBinary(validateResponse{Valid: true})
	stub := callerFunc(func(_, _ string, _ []byte) ([]byte, error) { return valid, nil })
	b := newCallerBatcher(stub, 0)
	it := rmcItem(sampleWireRMC(), "alice")
	allocs := testing.AllocsPerRun(200, func() {
		if err := b.do("login", it); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("batcher.do single call: %.0f allocs/op", allocs)
	if allocs > batcherSingleAllocs {
		t.Errorf("batcher.do single call allocates %.0f/op, budget %d", allocs, batcherSingleAllocs)
	}
}

// edgeCacheHitAllocs is EdgeCache.ValidateRMC's budget for a resident
// verdict: fingerprint, topic and lookup, with no issuer call.
const edgeCacheHitAllocs = 3

func TestEdgeCacheHitAllocBudget(t *testing.T) {
	valid := encodeValidateRespBinary(validateResponse{Valid: true})
	calls := 0
	stub := callerFunc(func(_, _ string, _ []byte) ([]byte, error) { calls++; return valid, nil })
	c := NewEdgeCache(NewRemoteValidator("edge", stub, -1, nil), 16)
	c.Attach()
	rmc := sampleWireRMC()
	if err := c.ValidateRMC(rmc, "alice"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.ValidateRMC(rmc, "alice"); err != nil {
			t.Fatal(err)
		}
	})
	if calls != 1 {
		t.Fatalf("issuer called %d times, want 1 fill and then hits", calls)
	}
	t.Logf("EdgeCache.ValidateRMC hit: %.0f allocs/op", allocs)
	if allocs > edgeCacheHitAllocs {
		t.Errorf("EdgeCache.ValidateRMC hit allocates %.0f/op, budget %d", allocs, edgeCacheHitAllocs)
	}
}

// activateAllocs is Service.Activate's budget for an initial role with no
// prerequisite and no membership watch: rule evaluation, the sequenced
// issue (serial, credential record, table insert) and RMC signing.
const activateAllocs = 12

// sequencedRevokeAllocs is Service.Revoke's budget for one live record:
// the sequenced revoke, table removal and the revocation event.
const sequencedRevokeAllocs = 7

func TestActivateAllocBudget(t *testing.T) {
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	pid := w.session().PrincipalID()
	want := role("login", "user")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := login.Activate(pid, want, Presented{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Activate: %.0f allocs/op", allocs)
	if allocs > activateAllocs {
		t.Errorf("Activate allocates %.0f/op, budget %d", allocs, activateAllocs)
	}
}

func TestSequencedRevokeAllocBudget(t *testing.T) {
	const runs = 200
	w := newWorld(t)
	login := w.service("login", `login.user <- env ok.`)
	alwaysTrue(login, "ok")
	pid := w.session().PrincipalID()
	// AllocsPerRun calls the function once more to warm up.
	serials := make([]uint64, 0, runs+1)
	for i := 0; i <= runs; i++ {
		rmc, err := login.Activate(pid, role("login", "user"), Presented{})
		if err != nil {
			t.Fatal(err)
		}
		serials = append(serials, rmc.Ref.Serial)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !login.Revoke(serials[next], "logout") {
			t.Fatalf("revoke %d reported no live record", serials[next])
		}
		next++
	})
	t.Logf("sequenced Revoke: %.0f allocs/op", allocs)
	if allocs > sequencedRevokeAllocs {
		t.Errorf("sequenced Revoke allocates %.0f/op, budget %d", allocs, sequencedRevokeAllocs)
	}
}
