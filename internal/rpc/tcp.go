package rpc

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxInflightPerConn bounds concurrently dispatched handlers per
// connection so one pipelining client cannot exhaust the server.
const maxInflightPerConn = 64

// writeQueueDepth is the per-connection frame write queue: deep enough
// that a burst of concurrent callers keeps the writer goroutine fed (and
// coalescing), shallow enough that a stalled peer exerts backpressure
// instead of buffering without bound.
const writeQueueDepth = 64

// wireBufSize sizes the buffered reader/writer on each connection; writes
// below it coalesce into one socket write per writer-goroutine wakeup.
const wireBufSize = 32 << 10

// wireMetrics carries the wire-level observability handles. The fields
// are atomic pointers (so Instrument may race with live traffic) to
// nil-safe obs handles (so an uninstrumented transport pays one nil check
// per update).
type wireMetrics struct {
	bytesSent       atomic.Pointer[obs.Counter]
	bytesReceived   atomic.Pointer[obs.Counter]
	framesCoalesced atomic.Pointer[obs.Counter]
	unmatched       atomic.Pointer[obs.Counter]
}

// instrument resolves the wire counters under a side label ("client" or
// "server") so one registry can carry both ends of a loopback deployment.
func (m *wireMetrics) instrument(reg *obs.Registry, side string) {
	label := fmt.Sprintf("{side=%q}", side)
	m.bytesSent.Store(reg.Counter("rpc_bytes_sent_total" + label))
	m.bytesReceived.Store(reg.Counter("rpc_bytes_received_total" + label))
	m.framesCoalesced.Store(reg.Counter("rpc_frames_coalesced_total" + label))
	m.unmatched.Store(reg.Counter("rpc_responses_unmatched_total" + label))
}

// countingConn counts the bytes crossing the socket boundary (i.e. after
// any buffering), attributing them to the owning transport's metrics.
type countingConn struct {
	net.Conn
	m *wireMetrics
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.m.bytesReceived.Load().Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.m.bytesSent.Load().Add(uint64(n))
	return n, err
}

// runFrameWriter is the shared per-connection writer goroutine body: it
// drains writeCh into a buffered writer, coalescing every frame already
// queued into a single flush (one syscall for a burst of small frames),
// and tears the connection down through onErr on the first write failure.
func runFrameWriter(conn net.Conn, writeCh <-chan []byte, done <-chan struct{}, m *wireMetrics, onErr func()) {
	bw := bufio.NewWriterSize(conn, wireBufSize)
	for {
		select {
		case buf := <-writeCh:
			coalesced := uint64(0)
			for {
				_, err := bw.Write(buf)
				putFrameBuf(buf)
				if err != nil {
					onErr()
					return
				}
				select {
				case buf = <-writeCh:
					coalesced++
					continue
				default:
				}
				break
			}
			if coalesced > 0 {
				m.framesCoalesced.Load().Add(coalesced)
			}
			if err := bw.Flush(); err != nil {
				onErr()
				return
			}
		case <-done:
			return
		}
	}
}

// TCPServer serves registered handlers over a net.Listener, speaking the
// pipelined binary framing of frame.go. Each request is dispatched on its
// own goroutine so a slow handler does not head-of-line block the
// connection, and responses may arrive out of request order — clients
// match on ID.
type TCPServer struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	streams  map[string]StreamHandler // keyed service+"\x00"+method; see stream.go
	ln       net.Listener
	wg       sync.WaitGroup
	closed   bool
	conns    map[net.Conn]struct{}
	metrics  wireMetrics
}

// NewTCPServer creates a server with no handlers.
func NewTCPServer() *TCPServer {
	return &TCPServer{
		handlers: make(map[string]Handler),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Instrument registers the server's wire-level byte and coalescing
// counters with reg (side="server"). Call before Serve.
func (s *TCPServer) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.metrics.instrument(reg, "server")
}

// Register installs the handler for a service name.
func (s *TCPServer) Register(service string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[service] = h
}

// Serve accepts connections on ln until Close. It returns nil after
// Close tears the listener down, and the accept error when the listener
// failed on its own — a daemon must surface that instead of hanging
// around deaf (an earlier oasisd discarded it and kept running).
func (s *TCPServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close() //nolint:errcheck
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn reads the connection preamble and serves the frame loop. A
// peer that does not open with the OW2 preamble is closed unanswered.
func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close() //nolint:errcheck
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cc := countingConn{Conn: conn, m: &s.metrics}
	br := bufio.NewReaderSize(cc, wireBufSize)
	var pre [4]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || checkPreamble(pre[:]) != nil {
		return
	}
	s.serveFrames(cc, br)
}

// handle runs the handler lookup + invocation for one request and
// returns the response body or error text.
func (s *TCPServer) handle(service, method string, body []byte) (out []byte, errMsg string) {
	s.mu.RLock()
	h, ok := s.handlers[service]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrUnknownService.Error() + ": " + service
	}
	out, err := h(method, body)
	if err != nil {
		return nil, err.Error()
	}
	return out, ""
}

// serveFrames is the connection loop after the preamble: demux-free on
// the read side (requests are independent), concurrent dispatch bounded
// by maxInflightPerConn, responses funnelled through one coalescing
// writer goroutine.
func (s *TCPServer) serveFrames(conn net.Conn, br *bufio.Reader) {
	writeCh := make(chan []byte, writeQueueDepth)
	done := make(chan struct{})
	var closeOnce sync.Once
	stop := func() { closeOnce.Do(func() { close(done) }) }
	defer stop()
	// Stream teardown runs after the dispatch goroutines drain (a racing
	// setup must have registered or self-stopped) but before the writer
	// stops, so a stop func can still flush queued events (defers below
	// run LIFO).
	var streams connStreams
	defer streams.stopAll()
	go runFrameWriter(conn, writeCh, done, &s.metrics, stop)

	var inflight sync.WaitGroup
	defer inflight.Wait()
	sem := make(chan struct{}, maxInflightPerConn)
	for {
		kind, id, payload, reqFrame, err := readFrameInto(br, getFrameBuf())
		if err != nil {
			return
		}
		if kind == frameKindCancel {
			// End the stream opened by request id. The stop func may
			// block draining queued events, so it dispatches like a
			// handler instead of stalling the read loop.
			putFrameBuf(reqFrame)
			if stop := streams.cancel(id); stop != nil {
				sem <- struct{}{}
				inflight.Add(1)
				go func() {
					defer func() { <-sem; inflight.Done() }()
					stop()
				}()
			}
			continue
		}
		if kind != frameKindRequest {
			return
		}
		service, method, body, err := parseRequest(payload)
		if err != nil {
			return
		}
		if sh := s.streamHandler(service, method); sh != nil {
			sem <- struct{}{}
			inflight.Add(1)
			go func(id uint64, method string, body, reqFrame []byte) {
				defer func() { <-sem; inflight.Done() }()
				s.startStream(id, sh, method, body, writeCh, done, &streams)
				putFrameBuf(reqFrame)
			}(id, method, body, reqFrame)
			continue
		}
		sem <- struct{}{}
		inflight.Add(1)
		go func(id uint64, service, method string, body, reqFrame []byte) {
			defer func() { <-sem; inflight.Done() }()
			out, errMsg := s.handle(service, method, body)
			frame := appendResponseFrame(getFrameBuf(), id, errMsg, out)
			// The response frame holds a copy of out, so even a handler
			// that echoed (aliased) the request body is done with the
			// request frame now; recycle it for a later read.
			putFrameBuf(reqFrame)
			select {
			case writeCh <- frame:
			case <-done:
			}
		}(id, service, method, body, reqFrame)
	}
}

// Close stops accepting, closes open connections and waits for connection
// goroutines to finish.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close() //nolint:errcheck
	}
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	s.wg.Wait()
}

// defaultDialTimeout bounds connection establishment when the client has
// no per-call budget of its own.
const defaultDialTimeout = 5 * time.Second

// Redial backoff bounds: consecutive dial failures back off exponentially
// between these, so a dead peer is not hammered while a recovered one is
// picked up within a bounded window.
const (
	redialBackoffBase = 10 * time.Millisecond
	redialBackoffMax  = 1 * time.Second
)

// TCPClient issues calls over a small pool of TCP connections to one
// server. It is safe for concurrent use: calls are spread round-robin
// over the pool, and each connection multiplexes many in-flight calls by
// request id, so a slow handler delays only its own caller.
//
// The client is self-healing: any dial, write, read, or framing failure
// marks that connection broken and the next call on the slot
// transparently redials with bounded exponential backoff. A per-call
// timeout abandons only that call — the connection and
// every other in-flight call on it survive, and the late response is
// dropped by the demux when it eventually arrives.
type TCPClient struct {
	addr        string
	timeout     time.Duration // per-call round-trip budget; 0 = none
	dialTimeout time.Duration

	nextID  atomic.Uint64 // client-global so IDs never repeat across redials
	next    atomic.Uint64 // round-robin pool cursor
	pool    []*muxConn
	closed  atomic.Bool
	metrics wireMetrics
}

var _ Caller = (*TCPClient)(nil)

// DialTCP connects to a TCPServer with a single pooled connection.
// timeout bounds
// each call round trip and, when set, connection establishment too (zero
// means no call deadline and a default dial timeout).
func DialTCP(addr string, timeout time.Duration) (*TCPClient, error) {
	return DialTCPPool(addr, timeout, 1)
}

// DialTCPPool connects to a TCPServer with size pooled connections. The
// first connection is dialled eagerly so configuration errors surface
// immediately; the rest are dialled lazily on demand.
func DialTCPPool(addr string, timeout time.Duration, size int) (*TCPClient, error) {
	if size < 1 {
		size = 1
	}
	dialTimeout := timeout
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}
	c := &TCPClient{addr: addr, timeout: timeout, dialTimeout: dialTimeout}
	c.pool = make([]*muxConn, size)
	for i := range c.pool {
		c.pool[i] = &muxConn{cli: c}
	}
	p := c.pool[0]
	p.mu.Lock()
	_, err := p.redialLocked()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Instrument registers the client's wire-level byte, coalescing and
// unmatched-response counters with reg (side="client"). Call before
// issuing traffic; connections already established keep counting through
// the shared handle struct.
func (c *TCPClient) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.metrics.instrument(reg, "client")
}

// Call implements Caller.
func (c *TCPClient) Call(service, method string, body []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("call %s.%s on closed client: %w", service, method, ErrConnBroken)
	}
	p := c.pool[c.next.Add(1)%uint64(len(c.pool))]
	return p.roundTrip(service, method, body)
}

// Close closes all pooled connections; subsequent calls fail. It always
// returns nil.
func (c *TCPClient) Close() error {
	c.closed.Store(true)
	for _, p := range c.pool {
		p.close()
	}
	return nil
}

// muxResult is one demuxed response (or teardown notice) delivered to a
// waiting call.
type muxResult struct {
	body   []byte
	errMsg string
	isErr  bool
	broken bool
}

// muxStream is the live connection state of one muxConn generation: the
// socket, the frame write queue, and the in-flight call table. A new
// generation replaces it wholesale on redial, so calls racing a teardown
// hold a consistent snapshot.
type muxStream struct {
	conn    net.Conn
	writeCh chan []byte
	done    chan struct{}
	once    sync.Once
	pending map[uint64]chan muxResult // guarded by the owning muxConn's mu
	streams map[uint64]*ClientStream  // open event streams, same guard
}

// muxConn is one pool slot. Connection state lives in cur;
// nil means disconnected and the next call dials (honouring the backoff
// window left by previous dial failures).
type muxConn struct {
	cli *TCPClient

	mu        sync.Mutex
	cur       *muxStream
	dialFails int
	nextDial  time.Time
}

// redialLocked (re)establishes the slot's connection and starts its
// reader and writer goroutines. Called with m.mu held.
func (m *muxConn) redialLocked() (*muxStream, error) {
	if wait := time.Until(m.nextDial); wait > 0 {
		time.Sleep(wait)
	}
	conn, err := net.DialTimeout("tcp", m.cli.addr, m.cli.dialTimeout)
	if err != nil {
		m.dialFails++
		backoff := redialBackoffBase << uint(min(m.dialFails-1, 10))
		if backoff > redialBackoffMax {
			backoff = redialBackoffMax
		}
		m.nextDial = time.Now().Add(backoff)
		return nil, fmt.Errorf("dial %s: %w", m.cli.addr, err)
	}
	cc := countingConn{Conn: conn, m: &m.cli.metrics}
	// The preamble is written synchronously under the dial budget so a
	// half-dead peer surfaces here, not on the first call.
	conn.SetDeadline(time.Now().Add(m.cli.dialTimeout)) //nolint:errcheck
	if _, err := cc.Write(framePreamble()); err != nil {
		conn.Close() //nolint:errcheck
		m.dialFails++
		m.nextDial = time.Now().Add(redialBackoffBase)
		return nil, fmt.Errorf("preamble %s: %w", m.cli.addr, err)
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	m.dialFails = 0
	m.nextDial = time.Time{}
	st := &muxStream{
		conn:    conn,
		writeCh: make(chan []byte, writeQueueDepth),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan muxResult),
	}
	m.cur = st
	go m.readLoop(st, cc)
	go runFrameWriter(cc, st.writeCh, st.done, &m.cli.metrics, func() { m.fail(st) })
	return st, nil
}

// fail tears down one stream generation: the socket closes, the writer
// and reader stop, and every in-flight call on it gets ErrConnBroken. A
// later generation (or a concurrent fail of the same one) is untouched.
func (m *muxConn) fail(st *muxStream) {
	st.once.Do(func() {
		close(st.done)
		st.conn.Close() //nolint:errcheck
	})
	m.mu.Lock()
	if m.cur == st {
		m.cur = nil
	}
	pend := st.pending
	st.pending = nil
	strs := st.streams
	st.streams = nil
	m.mu.Unlock()
	for _, ch := range pend {
		ch <- muxResult{broken: true}
	}
	for _, cs := range strs {
		cs.finish(ErrConnBroken)
	}
}

// readLoop demuxes response frames to their waiting calls by request id.
// A response whose id has no waiter (abandoned by a per-call timeout, or
// a server bug) is dropped and counted; the stream stays in sync because
// every frame is self-delimiting.
func (m *muxConn) readLoop(st *muxStream, conn net.Conn) {
	br := bufio.NewReaderSize(conn, wireBufSize)
	for {
		kind, id, payload, err := readFrame(br)
		if err != nil {
			m.fail(st)
			return
		}
		if kind == frameKindEvent {
			// Stream push: deliver synchronously on this loop (the
			// ClientStream contract demands a fast, non-reentrant
			// callback). The payload is freshly allocated per frame, so
			// the callback owns it.
			m.mu.Lock()
			cs := st.streams[id]
			m.mu.Unlock()
			if cs == nil {
				m.cli.metrics.unmatched.Load().Inc()
				continue
			}
			cs.onEvent(payload)
			continue
		}
		if kind != frameKindRespons {
			m.fail(st)
			return
		}
		body, isErr, errMsg, err := parseResponse(payload)
		if err != nil {
			m.fail(st)
			return
		}
		m.mu.Lock()
		ch := st.pending[id]
		delete(st.pending, id)
		m.mu.Unlock()
		if ch == nil {
			m.cli.metrics.unmatched.Load().Inc()
			continue
		}
		ch <- muxResult{body: body, errMsg: errMsg, isErr: isErr}
	}
}

func (m *muxConn) roundTrip(service, method string, body []byte) ([]byte, error) {
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
	m.mu.Unlock()

	frame := appendRequestFrame(getFrameBuf(), id, service, method, body)
	select {
	case st.writeCh <- frame:
	case <-st.done:
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
			return nil, fmt.Errorf("receive %s.%s: %w", service, method, ErrConnBroken)
		}
		if res.isErr {
			return nil, &RemoteError{Service: service, Method: method, Msg: res.errMsg}
		}
		return res.body, nil
	case <-timeoutCh:
		// Abandon only this call: deregister the id so the late response
		// is dropped by the demux. The connection — and every other call
		// in flight on it — is unaffected.
		m.mu.Lock()
		delete(st.pending, id)
		m.mu.Unlock()
		return nil, fmt.Errorf("%s.%s after %v: %w", service, method, m.cli.timeout, ErrCallTimeout)
	}
}

func (m *muxConn) close() {
	m.mu.Lock()
	st := m.cur
	m.mu.Unlock()
	if st != nil {
		m.fail(st)
	}
}
