package rpc

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestTCPSlowResponseDoesNotPoisonStream: under the multiplexed binary
// protocol a call that outlives its budget fails with ErrCallTimeout and
// the connection survives — the late response is matched by id and
// dropped by the demux, so later calls on the same connection succeed
// without a redial and never read a stale frame.
func TestTCPSlowResponseDoesNotPoisonStream(t *testing.T) {
	srv, addr := startServer(t)
	var calls atomic.Int64
	srv.Register("svc", func(method string, body []byte) ([]byte, error) {
		if calls.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond) // outlives the client deadline
		}
		return append([]byte("echo:"), body...), nil
	})
	cli, err := DialTCP(addr, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck

	if _, err := cli.Call("svc", "m", []byte("first")); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("slow call err = %v, want ErrCallTimeout", err)
	}
	// The second call must not read the first call's late frame.
	out, err := cli.Call("svc", "m", []byte("second"))
	if err != nil {
		t.Fatalf("call after timeout failed (stream poisoned?): %v", err)
	}
	if string(out) != "echo:second" {
		t.Fatalf("out = %q, want the second call's own response", out)
	}
	// And the connection stays healthy for subsequent traffic.
	for i := 0; i < 5; i++ {
		if out, err := cli.Call("svc", "m", []byte{byte(i)}); err != nil || string(out) != "echo:"+string([]byte{byte(i)}) {
			t.Fatalf("call %d after recovery: (%q, %v)", i, out, err)
		}
	}
}

// TestTCPDeadlineClearedAfterRoundTrip: a successful call must clear the
// connection deadline, so an idle period longer than the call budget does
// not poison the next call on the same connection.
func TestTCPDeadlineClearedAfterRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	srv.Register("svc", func(method string, body []byte) ([]byte, error) { return body, nil })
	cli, err := DialTCP(addr, 75*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	if _, err := cli.Call("svc", "m", []byte("x")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // idle past the per-call budget
	if out, err := cli.Call("svc", "m", []byte("y")); err != nil || string(out) != "y" {
		t.Fatalf("call after idle = (%q, %v); stale deadline inherited?", out, err)
	}
}

// TestTCPReconnectAfterServerRestart: calls fail while the server is down
// and recover once a new server listens on the same address.
func TestTCPReconnectAfterServerRestart(t *testing.T) {
	srv := NewTCPServer()
	srv.Register("svc", func(method string, body []byte) ([]byte, error) { return body, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln) //nolint:errcheck // dies with the test server

	cli, err := DialTCP(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	if _, err := cli.Call("svc", "m", []byte("up")); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if _, err := cli.Call("svc", "m", []byte("down")); err == nil {
		t.Fatal("call against closed server succeeded")
	}

	// Restart on the same address (retry briefly: the OS may lag
	// releasing the port).
	var ln2 net.Listener
	for i := 0; i < 50; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := NewTCPServer()
	srv2.Register("svc", func(method string, body []byte) ([]byte, error) { return body, nil })
	go srv2.Serve(ln2) //nolint:errcheck // dies with the test server
	t.Cleanup(srv2.Close)

	// The client redials with backoff; allow a few attempts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, err := cli.Call("svc", "m", []byte("back"))
		if err == nil {
			if string(out) != "back" {
				t.Fatalf("out = %q", out)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
	}
}

// TestTCPServerConcurrentDispatch pipelines two request frames on one raw
// connection; with concurrent dispatch the fast second request must be
// answered before the slow first one.
func TestTCPServerConcurrentDispatch(t *testing.T) {
	srv, addr := startServer(t)
	release := make(chan struct{})
	srv.Register("svc", func(method string, body []byte) ([]byte, error) {
		if method == "slow" {
			<-release
		}
		return body, nil
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close() //nolint:errcheck
	out := framePreamble()
	out = appendRequestFrame(out, 1, "svc", "slow", nil)
	out = appendRequestFrame(out, 2, "svc", "fast", nil)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	_, id, _, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("first response ID = %d, want 2 (slow handler blocked the connection)", id)
	}
	close(release)
	if _, id, _, err = readFrame(br); err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("second response ID = %d, want 1", id)
	}
}

// TestTCPServerClosesNonOW2Preamble: a peer that does not open with the
// OW2 preamble — a gob stream, an HTTP request, an OW2 preamble of
// another version — is closed without an answer, and the server keeps
// serving OW2 clients afterwards.
func TestTCPServerClosesNonOW2Preamble(t *testing.T) {
	srv, addr := startServer(t)
	srv.Register("svc", func(_ string, body []byte) ([]byte, error) { return body, nil })
	// Each opening is exactly preamble-sized, so the server has read all
	// of it when it hangs up (unread bytes would turn the FIN into a RST).
	for name, opening := range map[string][]byte{
		"gob length prefix": {0x1f, 0xff, 0x81, 0x03},
		"http":              []byte("GET "),
		"other OW2 version": {0x00, 'O', 'W', 0x01},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(opening); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		n, err := conn.Read(make([]byte, 64))
		conn.Close() //nolint:errcheck
		if n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("%s: read = (%d, %v), want (0, EOF)", name, n, err)
		}
	}
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	if out, err := cli.Call("svc", "echo", []byte("ok")); err != nil || string(out) != "ok" {
		t.Fatalf("OW2 call after rejected peers = (%q, %v)", out, err)
	}
}

// TestTCPPoolConcurrentCalls exercises a pooled client under concurrent
// load: all calls succeed with their own responses.
func TestTCPPoolConcurrentCalls(t *testing.T) {
	srv, addr := startServer(t)
	srv.Register("svc", func(method string, body []byte) ([]byte, error) {
		time.Sleep(5 * time.Millisecond)
		return body, nil
	})
	cli, err := DialTCPPool(addr, 5*time.Second, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				msg := []byte{byte(g), byte(i)}
				out, err := cli.Call("svc", "echo", msg)
				if err != nil || string(out) != string(msg) {
					t.Errorf("goroutine %d call %d = (%v, %v)", g, i, out, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTCPMuxUnmatchedResponseDropped: a response whose id matches no waiting call (late answer to an abandoned
// request, or a buggy server) is dropped and counted, not fatal — the
// matched response that follows is still delivered on the same
// connection.
func TestTCPMuxUnmatchedResponseDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() //nolint:errcheck
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close() //nolint:errcheck
		br := bufio.NewReader(conn)
		var pre [4]byte
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			return
		}
		for {
			_, id, payload, err := readFrame(br)
			if err != nil {
				return
			}
			_, _, body, err := parseRequest(payload)
			if err != nil {
				return
			}
			// A ghost frame for an id nobody is waiting on, then the
			// real answer.
			out := appendResponseFrame(nil, id+1000, "", []byte("ghost"))
			out = appendResponseFrame(out, id, "", body)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	cli, err := DialTCP(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	reg := obs.NewRegistry()
	cli.Instrument(reg)
	out, err := cli.Call("svc", "m", []byte("payload"))
	if err != nil || string(out) != "payload" {
		t.Fatalf("call = (%q, %v), want own payload", out, err)
	}
	if n := reg.Counter(`rpc_responses_unmatched_total{side="client"}`).Value(); n == 0 {
		t.Fatal("unmatched-response counter not incremented for the ghost frame")
	}
	// The connection survived the ghost: a second call works without a
	// redial window.
	if out, err := cli.Call("svc", "m", []byte("again")); err != nil || string(out) != "again" {
		t.Fatalf("call after ghost = (%q, %v)", out, err)
	}
}

// chaosProxy forwards TCP connections to a backend and can sever every
// live connection on demand, simulating mid-stream network breakage
// without touching either endpoint.
type chaosProxy struct {
	ln      net.Listener
	backend string
	mu      sync.Mutex
	conns   []net.Conn
}

func newChaosProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, backend: backend}
	t.Cleanup(func() {
		ln.Close() //nolint:errcheck
		p.sever()
	})
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close() //nolint:errcheck
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, client, server)
			p.mu.Unlock()
			go func() { io.Copy(server, client); server.Close() }() //nolint:errcheck
			go func() { io.Copy(client, server); client.Close() }() //nolint:errcheck
		}
	}()
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// sever closes every connection currently flowing through the proxy.
func (p *chaosProxy) sever() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
}

// TestTCPPoolStressNoCrossDelivery hammers a small pool (far more callers
// than slots, so every slot multiplexes many in-flight calls) while the
// network is severed mid-stream, and asserts the core mux invariant: a
// successful call NEVER returns another request's response. Errors during
// the breakage window are expected; cross-delivery is not. Run under
// -race in CI.
func TestTCPPoolStressNoCrossDelivery(t *testing.T) {
	srv, addr := startServer(t)
	srv.Register("svc", func(method string, body []byte) ([]byte, error) {
		// Shuffle completion order so responses interleave across ids.
		time.Sleep(time.Duration(body[1]%5) * time.Millisecond)
		return body, nil
	})
	proxy := newChaosProxy(t, addr)

	cli, err := DialTCPPool(proxy.addr(), 2*time.Second, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck

	const goroutines = 32
	const callsEach = 25
	var wg sync.WaitGroup
	var severed atomic.Bool
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				msg := []byte{byte(g), byte(i), byte(g ^ i)}
				out, err := cli.Call("svc", "echo", msg)
				if err != nil {
					continue // breakage window: failure is fine, skew is not
				}
				if string(out) != string(msg) {
					t.Errorf("goroutine %d call %d: got %v want %v (cross-delivered response)", g, i, out, msg)
					return
				}
				if g == 0 && i == callsEach/2 && !severed.Swap(true) {
					proxy.sever() // mid-stream breakage while calls are in flight
				}
			}
		}(g)
	}
	wg.Wait()

	// After the chaos the pool must heal: fresh calls succeed again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out, err := cli.Call("svc", "echo", []byte{9, 9, 9})
		if err == nil {
			if string(out) != string([]byte{9, 9, 9}) {
				t.Fatalf("post-recovery echo = %v", out)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %v", err)
		}
	}
}
