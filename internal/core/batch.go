package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
)

// defaultBatchWindow bounds how long queued validations wait for
// companions once a flight to their issuer is already outstanding.
const defaultBatchWindow = time.Millisecond

// maxConcurrentFlights is how many flights may be in the air per issuer
// before arrivals start gathering (cold queues only; hot queues gather
// regardless, see below). One slot is not enough: when a batch's
// verdicts land, its waiters re-arrive together to an empty queue, and
// with a single slot the first re-arrival departs solo and re-gates the
// rest for a full round trip — every steady-state cycle pays two serial
// RTTs for one batch. A second slot lets that solo overlap the next
// gather, so the returning herd departs after ~one RTT instead of two.
const maxConcurrentFlights = 2

// hotFactor scales the batch window into the hot TTL: a queue whose last
// coalesced departure was within hotFactor windows is in a fan-in storm
// and keeps gathering; past it the queue cools back to the
// depart-immediately fast path.
const hotFactor = 8

// regatherSettle is how long the re-gather spinner must observe the
// queue unchanged before concluding the herd has fully re-assembled and
// flushing it. Elapsed time, not yield counts: a Gosched on an idle P
// returns immediately, so counted yields can pass in microseconds
// mid-re-arrival and fragment the herd.
const regatherSettle = 50 * time.Microsecond

// regatherDeadline hard-caps the spinner so a continuous arrival stream
// (pending never settles) still flushes promptly.
const regatherDeadline = time.Millisecond

// (The re-gather waiter is event-driven: each arrival on a regathering
// queue pokes q.grow, so there is no polling cadence to tune — see
// regatherFlush.)

// batcher coalesces concurrent callback validations destined for the
// same issuer into validate_batch calls, collapsing the N-callbacks
// fan-in of activation storms and post-restart cache refill into ~1.
//
// The coalescing is in-flight-gated so batching never taxes a lone call:
// on a cold queue, a validation arriving while the issuer has a free
// flight slot departs IMMEDIATELY as a single call (zero added latency);
// validations arriving while all maxConcurrentFlights slots are occupied
// gather in the queue and depart together when a flight returns — or
// after the batch window, whichever is first, so the worst-case added
// wait is min(window, remaining flight time). The pipelined framing
// layer underneath carries overlapping flights on one connection, so a
// window-triggered departure never queues behind the gating flight.
//
// A queue that has just seen a coalesced departure is HOT: during a
// fan-in storm the whole herd of waiters re-arrives together the moment
// a batch's verdicts land, and letting the first re-arrivals depart solo
// (or flushing the instant the flight returns) would capture only the
// head of the herd, fragmenting it into small waves that each pay a
// full round trip. A hot queue therefore gathers every arrival, and a
// returning flight hands the next flush to a re-gather spinner that
// waits for the queue to stop growing, so the whole herd re-assembles
// and departs as one batch — a steady-state storm cycles at ~one RTT
// per full herd. The window timer remains the backstop, so a lone call
// landing on a hot queue waits at most the window, and the queue cools
// back to the depart-immediately path hotFactor windows after the storm
// ends.
//
// The batcher is deliberately independent of *Service: it needs only a
// transport and somewhere to count, so the HTTP edge gateway reuses the
// exact same coalescer (via RemoteValidator) for out-of-process clients.
type batcher struct {
	caller   rpc.Caller
	window   time.Duration
	disabled bool

	// Sinks. batchSize is nil-safe; the counters are always non-nil
	// (wired to service stats or a RemoteValidator's own counters).
	batchSize           *obs.Histogram
	batchesSent         *atomic.Uint64
	callbackValidations *atomic.Uint64
	batchedValidations  *atomic.Uint64

	mu     sync.Mutex
	queues map[string]*issuerQueue
}

// issuerQueue is the coalescing state for one issuer.
type issuerQueue struct {
	mu          sync.Mutex
	inflight    int          // flights currently out to this issuer
	pending     []*batchCall // gathered while inflight > 0
	timerSet    bool
	regathering bool      // a re-gather waiter is watching the queue
	hotUntil    time.Time // queue is mid fan-in storm until this instant

	// grow wakes the re-gather waiter: every arrival appended while
	// regathering pokes it (capacity 1, coalescing), so the waiter
	// learns the herd is still assembling without polling the queue.
	grow chan struct{}
}

// hot reports whether the queue is mid fan-in storm. Caller holds q.mu.
func (q *issuerQueue) hot() bool {
	return time.Now().Before(q.hotUntil)
}

// batchCall is one queued validation and its result channel. Calls are
// pooled: the caller in do is the only reader of done and reclaims the
// call after receiving its verdict, by which point no sender retains it.
type batchCall struct {
	item validateItem
	done chan error
}

var batchCallPool = sync.Pool{
	New: func() any { return &batchCall{done: make(chan error, 1)} },
}

// batchBodyPool recycles validate_batch request bodies — a storm encodes
// hundreds of items per round trip, and the body is dead the moment the
// transport returns. Outliers beyond a full herd's size are dropped
// rather than pinned.
var batchBodyPool sync.Pool

const batchBodyPoolMax = 1 << 20

// batchSlicePool recycles the gathered []*batchCall slices: a storm
// gathers and takes a herd-sized slice every cycle, and the slice is
// dead once dispatch has delivered every verdict.
var batchSlicePool sync.Pool

func getBatchSlice() []*batchCall {
	if v := batchSlicePool.Get(); v != nil {
		return (*v.(*[]*batchCall))[:0]
	}
	return nil
}

func putBatchSlice(batch []*batchCall) {
	if cap(batch) == 0 {
		return
	}
	clear(batch[:cap(batch)])
	batch = batch[:0]
	batchSlicePool.Put(&batch)
}

func getBatchBody() []byte {
	if v := batchBodyPool.Get(); v != nil {
		return (*v.(*[]byte))[:0]
	}
	return nil
}

func putBatchBody(buf []byte) {
	if cap(buf) == 0 || cap(buf) > batchBodyPoolMax {
		return
	}
	batchBodyPool.Put(&buf)
}

func newBatcher(svc *Service, window time.Duration) *batcher {
	b := newCallerBatcher(svc.caller, window)
	b.batchSize = svc.obsm.batchSize
	b.batchesSent = &svc.stats.batchesSent
	b.callbackValidations = &svc.stats.callbackValidations
	b.batchedValidations = &svc.stats.batchedValidations
	return b
}

// newCallerBatcher builds a coalescer over a bare transport with private
// counters; RemoteValidator uses it directly, services re-point the sinks
// at their stats.
func newCallerBatcher(caller rpc.Caller, window time.Duration) *batcher {
	b := &batcher{
		caller:              caller,
		window:              window,
		queues:              make(map[string]*issuerQueue),
		batchesSent:         new(atomic.Uint64),
		callbackValidations: new(atomic.Uint64),
		batchedValidations:  new(atomic.Uint64),
	}
	if window < 0 {
		b.disabled = true
	} else if window == 0 {
		b.window = defaultBatchWindow
	}
	return b
}

func (b *batcher) queue(issuer string) *issuerQueue {
	b.mu.Lock()
	defer b.mu.Unlock()
	q := b.queues[issuer]
	if q == nil {
		q = &issuerQueue{grow: make(chan struct{}, 1)}
		b.queues[issuer] = q
	}
	return q
}

// do validates one item with the issuer, batching behind any outstanding
// flight. It blocks until this item's verdict is in.
func (b *batcher) do(issuer string, it validateItem) error {
	q := b.queue(issuer)
	q.mu.Lock()
	if b.disabled || (!q.hot() && q.inflight < maxConcurrentFlights) {
		q.inflight++
		q.mu.Unlock()
		err := b.single(issuer, it)
		b.flightDone(issuer, q)
		return err
	}
	c := batchCallPool.Get().(*batchCall)
	c.item = it
	if q.pending == nil {
		q.pending = getBatchSlice()
	}
	q.pending = append(q.pending, c)
	if q.regathering {
		// Tell the re-gather waiter the herd is still assembling.
		select {
		case q.grow <- struct{}{}:
		default:
		}
	}
	if !q.timerSet {
		q.timerSet = true
		time.AfterFunc(b.window, func() { b.flushPending(issuer, q) })
	}
	q.mu.Unlock()
	err := <-c.done
	c.item = validateItem{}
	batchCallPool.Put(c)
	return err
}

// takePending claims the gathered batch (marking it in flight) or
// returns nil when there is nothing to send. A coalesced departure
// keeps the queue hot. Caller holds q.mu.
func (b *batcher) takePending(q *issuerQueue) []*batchCall {
	batch := q.pending
	q.pending = nil
	q.timerSet = false
	if len(batch) > 0 {
		q.inflight++
	}
	if len(batch) >= 2 {
		q.hotUntil = time.Now().Add(hotFactor * b.window)
	}
	return batch
}

// flightDone retires one flight and launches whatever gathered behind it
// as the next one. On a hot queue the next flush is instead handed to a
// re-gather spinner: the retired flight's waiters are re-arriving RIGHT
// NOW, and taking the queue this instant would catch only the first few
// of them, fragmenting the herd into small waves that each pay a full
// round trip. Letting the queue settle first means the whole herd (and
// any interleaved waves) departs as one batch, so a steady-state storm
// cycles at ~one RTT per full herd.
func (b *batcher) flightDone(issuer string, q *issuerQueue) {
	q.mu.Lock()
	q.inflight--
	if q.hot() {
		if !q.regathering {
			// Drain any stale wakeup left from a previous regather (an
			// arrival that poked after the waiter read the channel) so
			// the new waiter only sees arrivals from now on.
			select {
			case <-q.grow:
			default:
			}
			q.regathering = true
			go b.regatherFlush(issuer, q)
		}
		q.mu.Unlock()
		return
	}
	batch := b.takePending(q)
	q.mu.Unlock()
	if batch == nil {
		return
	}
	go func() {
		b.dispatch(issuer, batch)
		putBatchSlice(batch)
		b.flightDone(issuer, q)
	}()
}

// regatherFlush waits for a just-delivered herd to re-arrive and
// launches it as one batch. The wait is event-driven: every arrival on
// a regathering queue pokes q.grow, and the waiter resets its settle
// timer on each poke, flushing once no arrival has landed for a settle
// interval (the herd has re-assembled) or at the hard deadline (a
// continuous arrival stream must still flush promptly). Timers firing
// late under load err in the safe direction — a later flush gathers a
// BIGGER batch, never a fragmented one — and the window timer armed by
// each arrival remains the backstop if the waiter quits on an empty
// queue.
func (b *batcher) regatherFlush(issuer string, q *issuerQueue) {
	settle, deadline := regatherSettle, regatherDeadline
	if b.window < deadline {
		deadline = b.window
	}
	if d := b.window / 4; d < settle {
		settle = d
	}
	settleT := time.NewTimer(settle)
	deadlineT := time.NewTimer(deadline)
	defer settleT.Stop()
	defer deadlineT.Stop()
wait:
	for {
		select {
		case <-q.grow:
			// Herd still assembling: restart the settle clock.
			if !settleT.Stop() {
				select {
				case <-settleT.C:
				default:
				}
			}
			settleT.Reset(settle)
		case <-settleT.C:
			break wait
		case <-deadlineT.C:
			break wait
		}
	}
	q.mu.Lock()
	q.regathering = false
	n := len(q.pending)
	q.mu.Unlock()
	if n == 0 {
		return // herd went elsewhere; arrival timers cover latecomers
	}
	b.flushPending(issuer, q)
}

// flushPending is the batch-window timer body: the gathered batch
// departs now as an overlapping flight instead of waiting further for
// the gating one.
func (b *batcher) flushPending(issuer string, q *issuerQueue) {
	q.mu.Lock()
	batch := b.takePending(q)
	q.mu.Unlock()
	if batch == nil {
		return
	}
	b.dispatch(issuer, batch)
	putBatchSlice(batch)
	b.flightDone(issuer, q)
}

// dispatch sends one gathered batch and delivers each item's verdict: a
// batch of one goes out as a single call, anything larger as one
// validate_batch.
func (b *batcher) dispatch(issuer string, batch []*batchCall) {
	b.batchSize.Observe(int64(len(batch)))
	if len(batch) == 1 {
		batch[0].done <- b.single(issuer, batch[0].item)
		return
	}
	body := getBatchBody()
	if body == nil {
		body = make([]byte, 0, 16+192*len(batch)) // ~wire size of a typical item, with slack
	}
	body = append(body, tagValidateBatchReq)
	body = binary.AppendUvarint(body, uint64(len(batch)))
	for _, c := range batch {
		body = appendBatchItem(body, &c.item)
	}
	b.batchesSent.Add(1)
	b.callbackValidations.Add(uint64(len(batch)))
	out, err := b.caller.Call(issuer, "validate_batch", body)
	// Call is synchronous and the transport copies the body into its own
	// frame before sending (retries happen inside Call), so the buffer is
	// dead here and can be recycled for the next herd.
	putBatchBody(body)
	if err != nil {
		deliverAll(batch, fmt.Errorf("callback to %s: %w", issuer, err))
		return
	}
	pr, _ := batchRespsPool.Get().([]validateResponse)
	resps, derr := decodeValidateBatchRespInto(pr, out)
	if derr != nil || len(resps) != len(batch) {
		if derr == nil {
			derr = fmt.Errorf("%w: %d verdicts for %d items", errWireBin, len(resps), len(batch))
		}
		deliverAll(batch, fmt.Errorf("decode validation response: %w", derr))
		return
	}
	b.batchedValidations.Add(uint64(len(batch)))
	for i, c := range batch {
		c.done <- verdictErr(resps[i])
	}
	clear(resps)
	batchRespsPool.Put(resps[:0]) //nolint:staticcheck // slice reuse, header copy is fine
}

// single performs one per-item callback call.
func (b *batcher) single(issuer string, it validateItem) error {
	b.callbackValidations.Add(1)
	out, err := b.caller.Call(issuer, it.method(), it.encodeBinary())
	if err != nil {
		return fmt.Errorf("callback to %s: %w", issuer, err)
	}
	resp, err := decodeValidateRespBinary(out)
	if err != nil {
		return fmt.Errorf("decode validation response: %w", err)
	}
	return verdictErr(resp)
}

// verdictErr converts an issuer verdict into the validation result,
// preserving the authoritative-deny classification (ErrRevoked).
func verdictErr(resp validateResponse) error {
	if resp.Valid {
		return nil
	}
	return fmt.Errorf("%w: issuer says %s", ErrRevoked, resp.Reason)
}

func deliverAll(batch []*batchCall, err error) {
	for _, c := range batch {
		c.done <- err
	}
}
