package rpc

import (
	"fmt"
	"sync"
	"time"
)

// Server→client event streams over the OW2 framing.
//
// A stream is opened by an ordinary request frame whose (service, method)
// pair was registered with RegisterStream instead of Register. The server
// runs the StreamHandler to set the subscription up, acknowledges with an
// empty response frame (or an error response if setup failed), and from
// then on pushes frameKindEvent frames carrying opaque payloads, all
// tagged with the id of the opening request. Events share the
// connection's single coalescing writer with ordinary responses, so a
// stream never reorders or blocks concurrent calls on the same
// connection beyond the usual write-queue backpressure.
//
// Lifecycle: the stream lives until the client closes it or the
// connection dies for any reason, at which point the server invokes the
// handler's stop func exactly once. ClientStream.Close (and a subscribe
// abandoned by the per-call timeout) sends a frameKindCancel frame
// carrying the stream's id, so the server ends that one subscription
// promptly — without the cancel, an abandoned stream on a shared pooled
// connection would keep encoding and pushing every event, all discarded
// by the client demux as unmatched, until the whole connection died.
// The cancel is fire-and-forget: no ack, and a cancel racing the
// stream's setup is remembered so the subscription is stopped the
// moment the handler returns it.
//
// Ordering note: an event frame may legally arrive before the ack
// response (the subscription is live from the moment the handler
// returns). Clients register their event callback before sending the
// opening request, so early events are delivered, not dropped.

// StreamHandler sets up one server-side stream subscription. It is called
// on the connection's dispatch path with the opening request's method and
// body (valid only until the handler returns — copy anything retained)
// and a send func that pushes one event frame to the client. send is safe
// for concurrent use and returns ErrConnBroken once the connection is
// gone; the handler must arrange its own decoupling (e.g. a PeerQueue) if
// its event source must never block on a slow client. On success the
// handler returns a stop func, invoked exactly once when the stream ends.
type StreamHandler func(method string, body []byte, send func([]byte) error) (stop func(), err error)

// RegisterStream installs a stream handler for (service, method). Stream
// registrations are keyed by both names and take priority over a Register
// handler for the same service, for those two names only.
func (s *TCPServer) RegisterStream(service, method string, h StreamHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams == nil {
		s.streams = make(map[string]StreamHandler)
	}
	s.streams[service+"\x00"+method] = h
}

// streamHandler looks up a stream registration; nil means (service,
// method) dispatches as an ordinary call.
func (s *TCPServer) streamHandler(service, method string) StreamHandler {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.streams[service+"\x00"+method]
}

// connStreams tracks the live streams of one server connection so
// teardown can run every stop func exactly once, even against a
// concurrent setup racing the connection's death.
type connStreams struct {
	mu        sync.Mutex
	stops     map[uint64]func()
	cancelled map[uint64]struct{} // cancel frames that beat their stream's setup
	closed    bool
}

// add registers a stream's stop func; false means the connection is
// already tearing down — or a cancel frame for this id already arrived —
// and the caller must invoke stop itself.
func (c *connStreams) add(id uint64, stop func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	if _, ok := c.cancelled[id]; ok {
		delete(c.cancelled, id)
		return false
	}
	if c.stops == nil {
		c.stops = make(map[uint64]func())
	}
	c.stops[id] = stop
	return true
}

// cancel ends the stream opened by request id: the returned stop func
// (nil if there is nothing to stop) must be invoked by the caller, off
// this lock. A cancel that raced ahead of its stream's setup (the open
// request dispatches on its own goroutine, so the read loop can reach
// the cancel frame first) is remembered, and add refuses the late
// registration so startStream stops it immediately.
func (c *connStreams) cancel(id uint64) (stop func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	if stop, ok := c.stops[id]; ok {
		delete(c.stops, id)
		return stop
	}
	if c.cancelled == nil {
		c.cancelled = make(map[uint64]struct{})
	}
	c.cancelled[id] = struct{}{}
	return nil
}

// forget discards a remembered early cancel for a stream whose setup
// failed (no stop func will ever register under the id).
func (c *connStreams) forget(id uint64) {
	c.mu.Lock()
	delete(c.cancelled, id)
	c.mu.Unlock()
}

// stopAll ends every live stream and refuses later adds. Runs after the
// connection's dispatch goroutines drained but while its writer is still
// alive, so a stop func may flush queued events without deadlocking.
func (c *connStreams) stopAll() {
	c.mu.Lock()
	c.closed = true
	stops := c.stops
	c.stops = nil
	c.mu.Unlock()
	for _, stop := range stops {
		stop()
	}
}

// startStream runs one stream setup on the server: invoke the handler,
// register the stop func, acknowledge. Runs on a dispatch goroutine of
// serveFrames under the connection's inflight/sem accounting.
func (s *TCPServer) startStream(id uint64, h StreamHandler, method string, body []byte, writeCh chan<- []byte, done <-chan struct{}, cs *connStreams) {
	send := func(payload []byte) error {
		frame := appendFrame(getFrameBuf(), frameKindEvent, id, payload)
		select {
		case writeCh <- frame:
			return nil
		case <-done:
			putFrameBuf(frame)
			return ErrConnBroken
		}
	}
	stop, err := h(method, body, send)
	if err != nil {
		cs.forget(id)
		frame := appendResponseFrame(getFrameBuf(), id, err.Error(), nil)
		select {
		case writeCh <- frame:
		case <-done:
			putFrameBuf(frame)
		}
		return
	}
	if !cs.add(id, stop) {
		// The connection died — or the client's cancel frame arrived —
		// between dispatch and registration; the teardown sweep and the
		// cancel path can no longer see this stream, so end it here.
		stop()
		return
	}
	frame := appendResponseFrame(getFrameBuf(), id, "", nil)
	select {
	case writeCh <- frame:
	case <-done:
		putFrameBuf(frame)
	}
}

// ClientStream is the client handle of one open event stream. Events are
// delivered to the onEvent callback passed to TCPClient.Stream,
// synchronously on the connection's read loop — the callback must be
// fast and must not call back into the client, and the payload slice is
// owned by the callback (freshly allocated per frame).
type ClientStream struct {
	onEvent func([]byte)

	mu        sync.Mutex
	err       error
	done      chan struct{}
	once      sync.Once
	closeOnce sync.Once
	closeFn   func()
}

// Done is closed when the stream ends, by either side.
func (cs *ClientStream) Done() <-chan struct{} { return cs.done }

// Err reports why the stream ended: nil after a local Close,
// ErrConnBroken when the connection died under it. Valid after Done.
func (cs *ClientStream) Err() error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.err
}

// Close ends the stream: events stop being delivered immediately, and a
// cancel frame is sent so the server stops the subscription promptly
// instead of pushing discarded events until the connection dies. The
// connection itself survives — Close is safe on a stream sharing a
// pooled connection with ordinary calls.
func (cs *ClientStream) Close() {
	cs.closeOnce.Do(cs.closeFn)
	cs.finish(nil)
}

func (cs *ClientStream) finish(err error) {
	cs.once.Do(func() {
		cs.mu.Lock()
		cs.err = err
		cs.mu.Unlock()
		close(cs.done)
	})
}

// Stream opens an event stream for (service, method) on one pooled
// connection and delivers every event payload to onEvent (see
// ClientStream for the callback contract). The call blocks until the
// server acknowledges the subscription (bounded by the client's per-call
// timeout); setup errors surface as RemoteError exactly like a failed
// call.
func (c *TCPClient) Stream(service, method string, body []byte, onEvent func([]byte)) (*ClientStream, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("stream %s.%s on closed client: %w", service, method, ErrConnBroken)
	}
	return c.pool[c.next.Add(1)%uint64(len(c.pool))].stream(service, method, body, onEvent)
}

func (m *muxConn) stream(service, method string, body []byte, onEvent func([]byte)) (*ClientStream, error) {
	m.mu.Lock()
	st := m.cur
	if st == nil {
		var err error
		st, err = m.redialLocked()
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	id := m.cli.nextID.Add(1)
	ch := make(chan muxResult, 1)
	st.pending[id] = ch
	// sendCancel tells the server to end this stream's subscription. Best
	// effort: if the connection is already gone the server-side stop ran
	// (or will run) with the connection teardown anyway.
	sendCancel := func() {
		frame := appendFrame(getFrameBuf(), frameKindCancel, id)
		select {
		case st.writeCh <- frame:
		case <-st.done:
			putFrameBuf(frame)
		}
	}
	cs := &ClientStream{onEvent: onEvent, done: make(chan struct{})}
	cs.closeFn = func() {
		m.mu.Lock()
		if st.streams != nil {
			delete(st.streams, id)
		}
		m.mu.Unlock()
		sendCancel()
	}
	if st.streams == nil {
		st.streams = make(map[uint64]*ClientStream)
	}
	st.streams[id] = cs
	m.mu.Unlock()

	deregister := func() {
		m.mu.Lock()
		delete(st.pending, id)
		if st.streams != nil {
			delete(st.streams, id)
		}
		m.mu.Unlock()
	}

	frame := appendRequestFrame(getFrameBuf(), id, service, method, body)
	select {
	case st.writeCh <- frame:
	case <-st.done:
		deregister()
		return nil, fmt.Errorf("send %s.%s: %w", service, method, ErrConnBroken)
	}

	var timeoutCh <-chan time.Time
	if t := m.cli.timeout; t > 0 {
		timer := time.NewTimer(t)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case res := <-ch:
		if res.broken {
			// fail(st) already finished cs with ErrConnBroken.
			return nil, fmt.Errorf("subscribe %s.%s: %w", service, method, ErrConnBroken)
		}
		if res.isErr {
			deregister()
			return nil, &RemoteError{Service: service, Method: method, Msg: res.errMsg}
		}
		return cs, nil
	case <-timeoutCh:
		// The server may still establish the subscription after this
		// deadline; the cancel frame ends it (immediately, or the moment
		// its racing setup registers) so an abandoned stream never keeps
		// pushing events at a client that stopped listening.
		deregister()
		sendCancel()
		return nil, fmt.Errorf("%s.%s after %v: %w", service, method, m.cli.timeout, ErrCallTimeout)
	}
}
