package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// checker counts operations against their expected outcome. Refused,
// shed, timed-out and wrong answers all count as failed; a positive
// verdict for a serial a tier has already denied is a hard failure that
// fails the whole command.
type checker struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu      sync.Mutex
	denied  map[string]map[uint64]bool // tier -> serials it has been seen to deny
	hard    []string                   // hard failures, first few kept
	firstEr error                      // first ordinary failure, for the log
}

func newChecker() *checker {
	return &checker{denied: make(map[string]map[uint64]bool)}
}

// op records one completed operation; ok is whether it produced the
// expected result.
func (c *checker) op(ok bool, err error) bool {
	c.attempted.Add(1)
	if ok && err == nil {
		return true
	}
	c.failed.Add(1)
	if err != nil {
		c.mu.Lock()
		if c.firstEr == nil {
			c.firstEr = err
		}
		c.mu.Unlock()
	}
	return false
}

// verdict checks a validation answer against the request's class: live
// certificates must validate, revoked and tampered ones must not.
func (c *checker) verdict(cl class, valid bool, err error) bool {
	if err == nil && valid != (cl == classLive) {
		err = fmt.Errorf("wrong verdict: class %d answered valid=%v", cl, valid)
	}
	return c.op(err == nil, err)
}

// observe records what a tier answered for a serial whose revocation is
// in progress, and reports a stale positive: valid after that tier's
// first deny for the same serial.
func (c *checker) observe(tier string, serial uint64, valid bool) (stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.denied[tier]
	if m == nil {
		m = make(map[uint64]bool)
		c.denied[tier] = m
	}
	if !valid {
		m[serial] = true
		return false
	}
	if m[serial] {
		c.fail(fmt.Sprintf("stale positive: %s validated serial %d after denying it", tier, serial))
		return true
	}
	return false
}

// fail records a hard failure. Caller holds c.mu or uses failHard.
func (c *checker) fail(msg string) {
	if len(c.hard) < 8 {
		c.hard = append(c.hard, msg)
	}
	c.failed.Add(1)
}

func (c *checker) failHard(msg string) {
	c.mu.Lock()
	c.fail(msg)
	c.mu.Unlock()
}

func (c *checker) hardFailures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.hard...)
}

// openResult is what an open-loop phase measured. Index i is the i-th
// scheduled request.
type openResult struct {
	Due  []time.Duration // scheduled send time, from phase start
	Lat  []float64       // µs from due time to completion (so a stall's queueing shows)
	Late []float64       // µs the generator sent after the due time
	OK   []bool          // completed with the expected result
	N    int             // requests that were sent before the phase ended
}

// runOpen sends n requests on a fixed schedule of rate per second. One
// pacer releases each request at its due time; nWorkers goroutines send
// them, each with at most one request in flight. The schedule never
// adapts: a slow system gets a growing backlog (the released-but-unsent
// queue), and each request's latency is counted from when it was due,
// not from when a worker got round to it. op performs request i and
// reports success.
func runOpen(nWorkers int, rate float64, n int, op func(worker, i int) bool) openResult {
	return runOpenSleep(nWorkers, rate, n, op, preciseSleep)
}

// runOpenSleep is runOpen with the pacer's wait primitive injected (tests
// stall it to check that lateness is reported and charged to latency).
func runOpenSleep(nWorkers int, rate float64, n int, op func(worker, i int) bool, sleep func(time.Duration)) openResult {
	res := openResult{
		Due:  make([]time.Duration, n),
		Lat:  make([]float64, n),
		Late: make([]float64, n),
		OK:   make([]bool, n),
		N:    n,
	}
	interval := time.Duration(float64(time.Second) / rate)
	// Capacity n: the pacer must never block on a slow system, or the
	// loop would close.
	released := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(released)
		// Only the pacer is pinned to a thread; workers stay ordinary
		// goroutines, as a real client's would be.
		defer pinForPreciseSleep()()
		for i := 0; i < n; i++ {
			if wait := time.Duration(i)*interval - time.Since(start); wait > 0 {
				sleep(wait)
			}
			released <- i
		}
	}()
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range released {
				due := time.Duration(i) * interval
				sent := time.Since(start)
				ok := op(w, i)
				res.Due[i] = due
				res.Late[i] = micros(sent - due)
				res.Lat[i] = micros(time.Since(start) - due)
				res.OK[i] = ok
			}
		}(w)
	}
	wg.Wait()
	return res
}

// okLat returns the latencies (and due times) of the requests that
// succeeded; failures have no latency — they miss any limit.
func (r openResult) okLat() ([]time.Duration, []float64) {
	due := make([]time.Duration, 0, r.N)
	lat := make([]float64, 0, r.N)
	for i := 0; i < r.N; i++ {
		if r.OK[i] {
			due = append(due, r.Due[i])
			lat = append(lat, r.Lat[i])
		}
	}
	return due, lat
}

// runClosed runs nWorkers clients back to back for d: each sends its
// next request only when the previous one has completed. It returns the
// number of successful operations and the measured duration. op gets a
// per-worker sequence number.
func runClosed(nWorkers int, d time.Duration, op func(worker, i int) bool) (okOps int64, elapsed time.Duration) {
	var ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if op(w, i) {
					ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return ok.Load(), time.Since(start)
}
