//go:build !race

package rpc

import (
	"testing"
	"time"
)

// owEchoAllocs is the budget for one OW2 echo round trip over DialTCP,
// both ends in this process: request frame encode, server read and
// dispatch, response frame encode, client demux. The race detector
// instruments allocations, so this runs only in non-race builds.
const owEchoAllocs = 16

func TestOW2EchoAllocBudget(t *testing.T) {
	srv, addr := startServer(t)
	srv.Register("svc", func(_ string, body []byte) ([]byte, error) { return body, nil })
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	msg := []byte("0123456789abcdef0123456789abcdef")
	if _, err := cli.Call("svc", "echo", msg); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if out, err := cli.Call("svc", "echo", msg); err != nil || len(out) != len(msg) {
			t.Fatalf("echo = (%q, %v)", out, err)
		}
	})
	t.Logf("OW2 echo round trip: %.0f allocs/op", allocs)
	if allocs > owEchoAllocs {
		t.Errorf("OW2 echo round trip allocates %.0f/op, budget %d", allocs, owEchoAllocs)
	}
}
