package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectStream opens a stream that appends every event payload to a
// shared slice, returning the handle and an accessor.
func collectStream(t *testing.T, cli *TCPClient, service, method string, body []byte) (*ClientStream, func() []string) {
	t.Helper()
	var mu sync.Mutex
	var got []string
	cs, err := cli.Stream(service, method, body, func(p []byte) {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), got...)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestStreamDeliversEvents(t *testing.T) {
	srv, addr := startServer(t)
	srv.RegisterStream("feed", "subscribe", func(method string, body []byte, send func([]byte) error) (func(), error) {
		prefix := string(body) // body is only valid during setup; copy it
		go func() {
			for i := 0; i < 5; i++ {
				if err := send([]byte(fmt.Sprintf("%s-%d", prefix, i))); err != nil {
					return
				}
			}
		}()
		return func() {}, nil
	})
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	_, got := collectStream(t, cli, "feed", "subscribe", []byte("ev"))
	waitFor(t, "5 events", func() bool { return len(got()) == 5 })
	for i, s := range got() {
		if want := fmt.Sprintf("ev-%d", i); s != want {
			t.Errorf("event[%d] = %q, want %q", i, s, want)
		}
	}
}

func TestStreamStopRunsOnClientClose(t *testing.T) {
	srv, addr := startServer(t)
	var stopped atomic.Bool
	srv.RegisterStream("feed", "subscribe", func(string, []byte, func([]byte) error) (func(), error) {
		return func() { stopped.Store(true) }, nil
	})
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := collectStream(t, cli, "feed", "subscribe", nil)
	cli.Close() //nolint:errcheck
	waitFor(t, "server-side stop", stopped.Load)
	<-cs.Done()
	if !errors.Is(cs.Err(), ErrConnBroken) {
		t.Errorf("Err() = %v, want ErrConnBroken", cs.Err())
	}
}

func TestStreamStopRunsOnServerClose(t *testing.T) {
	srv, addr := startServer(t)
	var stopped atomic.Bool
	srv.RegisterStream("feed", "subscribe", func(string, []byte, func([]byte) error) (func(), error) {
		return func() { stopped.Store(true) }, nil
	})
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	cs, _ := collectStream(t, cli, "feed", "subscribe", nil)
	srv.Close()
	waitFor(t, "server-side stop", stopped.Load)
	select {
	case <-cs.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stream not finished after server close")
	}
	if !errors.Is(cs.Err(), ErrConnBroken) {
		t.Errorf("Err() = %v, want ErrConnBroken", cs.Err())
	}
}

func TestStreamLocalCloseStopsDelivery(t *testing.T) {
	srv, addr := startServer(t)
	release := make(chan struct{})
	srv.RegisterStream("feed", "subscribe", func(_ string, _ []byte, send func([]byte) error) (func(), error) {
		go func() {
			send([]byte("early")) //nolint:errcheck
			<-release
			send([]byte("late")) //nolint:errcheck
		}()
		return func() {}, nil
	})
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	cs, got := collectStream(t, cli, "feed", "subscribe", nil)
	waitFor(t, "first event", func() bool { return len(got()) == 1 })
	cs.Close()
	<-cs.Done()
	if cs.Err() != nil {
		t.Errorf("Err() after local close = %v, want nil", cs.Err())
	}
	close(release)
	// The late event is dropped by the demux (counted unmatched), never
	// delivered. Issue a round-trip call to flush the pipe before
	// asserting.
	srv.Register("svc", func(string, []byte) ([]byte, error) { return nil, nil })
	if _, err := cli.Call("svc", "ping", nil); err != nil {
		t.Fatal(err)
	}
	if evs := got(); len(evs) != 1 {
		t.Errorf("events after close = %v, want just [early]", evs)
	}
}

// TestStreamCloseStopsServerSubscription: Close must end the server-side
// subscription promptly via the cancel frame — not leave it encoding and
// pushing discarded events until the (possibly shared, pooled)
// connection dies — while the connection itself stays usable.
func TestStreamCloseStopsServerSubscription(t *testing.T) {
	srv, addr := startServer(t)
	var stopped atomic.Bool
	srv.RegisterStream("feed", "subscribe", func(string, []byte, func([]byte) error) (func(), error) {
		return func() { stopped.Store(true) }, nil
	})
	srv.Register("svc", func(string, []byte) ([]byte, error) { return nil, nil })
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	cs, _ := collectStream(t, cli, "feed", "subscribe", nil)
	cs.Close()
	cs.Close() // idempotent: one cancel frame, not two
	waitFor(t, "server-side stop after Close", stopped.Load)
	if _, err := cli.Call("svc", "ping", nil); err != nil {
		t.Fatalf("connection unusable after stream close: %v", err)
	}
}

// TestStreamTimeoutCancelsRacingSetup: a subscribe abandoned by the
// per-call timeout sends its cancel before the slow server-side setup
// completes; the subscription must be stopped the moment the handler
// returns it instead of living on unobserved.
func TestStreamTimeoutCancelsRacingSetup(t *testing.T) {
	srv, addr := startServer(t)
	release := make(chan struct{})
	var stopped atomic.Bool
	srv.RegisterStream("feed", "subscribe", func(string, []byte, func([]byte) error) (func(), error) {
		<-release
		return func() { stopped.Store(true) }, nil
	})
	cli, err := DialTCP(addr, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	_, err = cli.Stream("feed", "subscribe", nil, func([]byte) {})
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	close(release)
	waitFor(t, "abandoned subscription stopped", stopped.Load)
}

func TestStreamSetupError(t *testing.T) {
	srv, addr := startServer(t)
	srv.RegisterStream("feed", "subscribe", func(string, []byte, func([]byte) error) (func(), error) {
		return nil, errors.New("no such topic")
	})
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	_, err = cli.Stream("feed", "subscribe", nil, func([]byte) {})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want RemoteError", err, err)
	}
}

func TestStreamCoexistsWithCalls(t *testing.T) {
	srv, addr := startServer(t)
	srv.RegisterStream("feed", "subscribe", func(_ string, _ []byte, send func([]byte) error) (func(), error) {
		stop := make(chan struct{})
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := send([]byte(fmt.Sprintf("e%d", i))); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		var once sync.Once
		return func() { once.Do(func() { close(stop) }) }, nil
	})
	srv.Register("svc", func(method string, body []byte) ([]byte, error) {
		return body, nil
	})
	cli, err := DialTCP(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close() //nolint:errcheck
	_, got := collectStream(t, cli, "feed", "subscribe", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := []byte(fmt.Sprintf("w%d-%d", w, i))
				out, err := cli.Call("svc", "echo", body)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if string(out) != string(body) {
					t.Errorf("echo = %q, want %q", out, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, "stream events alongside calls", func() bool { return len(got()) >= 3 })
}
