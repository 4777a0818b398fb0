//go:build !race

package gateway

import "testing"

// Allocation budgets for the edge's per-verdict work, checked in plain
// `go test`. The race detector instruments allocations, so these run
// only in non-race builds.

// decodeValidateAllocs is decodeValidateRequest's budget on the
// benchmark-shaped body: the RMC, its parameter slice and one copy per
// decoded string (principal, service, role name, atom, issuer).
const decodeValidateAllocs = 7

func TestDecodeValidateRequestAllocBudget(t *testing.T) {
	body := benchBody(t)
	allocs := testing.AllocsPerRun(200, func() {
		var req ValidateRequest
		if err := decodeValidateRequest(body, &req); err != nil || req.RMC == nil {
			t.Fatalf("decode = %v", err)
		}
	})
	t.Logf("decodeValidateRequest: %.0f allocs/op", allocs)
	if allocs > decodeValidateAllocs {
		t.Errorf("decodeValidateRequest allocates %.0f/op, budget %d", allocs, decodeValidateAllocs)
	}
}
