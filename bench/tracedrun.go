package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/core"
)

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runTraced is the per-layer run: the same workload against the
// in-process twin of the topology with every reachable seam wrapped.
// The measured seconds go a quarter to an untraced reference phase
// interleaved with a quarter of traced reads, and half to the traced
// churn phase; the micro-timings follow. Each traced path keeps one request in
// flight, so a span's cause can be recovered from the clock.
func runTraced(cfg runConfig, h *harness) (*measured, *checker, error) {
	sc, wl := cfg.Scale, cfg.Workload
	pop := genPopulation(cfg.Seed, sc)
	chk := newChecker()
	m := newMeasured()
	tr := newTracer()

	t, err := startTracedTopology(h, tr, pop, sc)
	if err != nil {
		return nil, nil, err
	}
	defer t.stop()
	tt := t.traced

	// Set-up: activations (with the leader's heap growth taken around
	// them), then a fresh follower catching up from nothing.
	heap0 := heapInUse()
	c, err := activateAll(t, pop, sc)
	if err != nil {
		return nil, nil, err
	}
	crs := 2 * (len(c.Live) + len(c.Revoked))
	// One heap holds the leader's records and the generator's copy of
	// every certificate, so this is an upper bound on the leader's share.
	m.set("core.resident_bytes_per_cr", float64(heapInUse()-heap0)/float64(crs), crs)
	if err := tt.startFollower(t); err != nil {
		return nil, nil, err
	}
	if err := awaitFollower(t, c); err != nil {
		return nil, nil, err
	}
	m.set("replica.catchup_s", time.Since(tt.followRun).Seconds(), 1)
	if err := warmEdge(t, c, sc); err != nil {
		return nil, nil, err
	}

	d, err := newDriver(cfg, t, pop, c, chk, tr)
	if err != nil {
		return nil, nil, err
	}
	defer d.close()
	d.ss.watch = func(login cert.RMC) error { return tt.subscribeTopic(core.TopicCR(login.Ref)) }

	total := time.Duration(cfg.Seconds) * time.Second
	rate := churnReadRate(wl)
	runClosed(1, total/16, d.read1)

	// Read phase, alternating tracer off and on in rounds so that the
	// reference and the traced latencies sample the same stretch of time.
	var refLat, lat, late []float64
	nRead := int((total/4).Seconds()*rate) / rounds
	for r := 0; r < rounds; r++ {
		_, l := runOpen(1, rate, nRead, d.read1).okLat()
		refLat = append(refLat, l...)
		tr.on.Store(true)
		reads := runOpen(1, rate, nRead, d.read1)
		tr.on.Store(false)
		_, l = reads.okLat()
		lat = append(lat, l...)
		late = append(late, reads.Late...)
	}

	// Traced churn phase: session scripts on one worker, reads on the other.
	tr.on.Store(true)
	churnFrom := tr.now()
	nChurn := int((total / 2).Seconds() * rate)
	sess, err := d.sessionsBeside(total/2, true, func() { runOpen(1, rate, nChurn, d.read1) })
	if err != nil {
		return nil, nil, err
	}

	// Coalescer side phase: the gateway's own validator (default window)
	// called from both workers at once, so that validations queue behind
	// a flight and ride validate_batch.
	coalesceFrom := tr.now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 2000; i += workers {
				hd := &c.Live[(i*37)%len(c.Live)]
				id := tr.begin("coalesce:validate", 0)
				err := tt.validator.ValidateRMC(hd.Files, principalID(hd.Name))
				tr.end(id)
				chk.op(err == nil, err)
			}
		}(w)
	}
	wg.Wait()
	tr.on.Store(false)

	spans := tr.snapshot()
	if err := writeTrace(filepath.Join(outRoot, "trace-"+wl+".json"), spans); err != nil {
		return nil, nil, err
	}

	// Validate path: generator call, gateway handler, OW2 call, handler —
	// from the read phase, where nothing else was in flight.
	main := spansBefore(spans, coalesceFrom)
	vRows := pathRows(spansBefore(spans, churnFrom), "loadgen:validate")
	set := func(name, layer string, rows []pathRow) {
		v, n := layerMedian(rows, layer)
		m.set(name, v, n)
	}
	set("loadgen.http_self_us", "loadgen", vRows)
	set("gateway.self_us", "gateway", vRows)
	set("rpc.self_us", "rpc.call", vRows)
	set("core.handle_validate_us", "handle", vRows)

	// Revoke path: the same seams, plus the journal inside the handler.
	rRows := pathRows(main, "loadgen:revoke")
	set("core.revoke_self_us", "handle", rRows)
	var waits, acks []float64
	for _, r := range rRows {
		waits = append(waits, r.Self["durable"])
		acks = append(acks, r.Total)
	}
	m.set("durable.fsync_share", ratio(median(waits), median(acks)), len(rRows))
	wait := durations(main, "durable:append_wait")
	m.set("durable.append_wait_us", median(wait), len(wait))
	async := durations(main, "durable:append_async")
	m.set("durable.append_async_ns", median(async)*1e3, len(async))
	flush := durations(main, "edgecache:handle_event")
	m.set("core.edgecache_flush_us", median(flush), len(flush))

	if wl == wlChurn {
		m.set("trace.sum_ratio", sumRatio(rRows), len(rRows))
	} else {
		m.set("trace.sum_ratio", sumRatio(vRows), len(vRows))
	}
	m.set("trace.overhead_ratio", ratio(median(lat), median(refLat)), len(lat))

	// Coalescer: time in RemoteValidator beyond the wire call it waited for.
	side := spans[len(main):]
	calls := durations(side, "coalesce:validate")
	var wire []float64
	for _, s := range side {
		if strings.HasPrefix(s.Name, "rpc.call:") {
			wire = append(wire, float64(s.dur())/1e3)
		}
	}
	m.set("core.coalesce_wait_us", max(0, median(calls)-median(wire)), len(calls))

	// The revocation's journey after the ack, per ended session.
	var deliver, cascade, feed, apply []float64
	add := func(dst *[]float64, fromStage, fromTopic, toStage, toTopic string) {
		if v, ok := tt.evs.lag(fromStage, fromTopic, toStage, toTopic); ok {
			*dst = append(*dst, v)
		}
	}
	for _, hd := range d.ss.ended {
		lt, ft := core.TopicCR(hd.Login.Ref), core.TopicCR(hd.Files.Ref)
		add(&deliver, stPublished, lt, stDelivered, lt)
		add(&cascade, stPublished, lt, stPublished, ft)
		add(&feed, stPublished, ft, stFeedFrame, ft)
		add(&apply, stJournaled, ft, stApplied, ft)
	}
	m.set("event.publish_deliver_us", median(deliver), len(deliver))
	m.set("core.cascade_us", median(cascade), len(cascade))
	m.set("event.feed_deliver_us", median(feed), len(feed))
	m.set("replica.apply_lag_us", median(apply), len(apply))
	if len(d.ss.ended) == 0 || len(cascade) == 0 {
		return nil, nil, fmt.Errorf("traced churn phase recorded no complete revocation (%d sessions ended)", len(d.ss.ended))
	}

	// Generator-side figures.
	m.set("loadgen.sched_late_p99_us", tail(late, 0.99), len(late))
	m.set("loadgen.validate_p99_us", tail(lat, 0.99), len(lat))
	m.set("loadgen.revoke_ack_p99_us", tail(d.ss.revokeAck, 0.99), len(d.ss.revokeAck))
	m.Extra["loadgen.session_late_p99_us"] = tail(sess.Late, 0.99)
	m.Extra["traced.validate_p50_us"] = median(lat)
	m.Extra["untraced_inproc.validate_p50_us"] = median(refLat)
	d.ss.metrics(m) // the in-process twin's end-to-end figures, as extras

	// Counters, read off the tiers' registries exactly as a scrape would.
	leader, follower, gw, err := tt.expositions()
	if err != nil {
		return nil, nil, err
	}
	counters := map[string]float64{}
	layerCounters(leader, follower, gw, counters)
	for k, v := range counters {
		m.set(k, v, 0)
	}

	// The micro-timings want a quiet process and a small heap: several of
	// the timed calls allocate, and a collector marking a heap full of
	// spans would be charged to them. Stop the topology (the journal
	// stays on disk for the replay timing) and drop the trace first.
	if err := tt.dlog.Sync(); err != nil {
		return nil, nil, err
	}
	d.close()
	t.stop()
	spans, main, vRows, rRows, side = nil, nil, nil, nil, nil
	tr.reset()
	runtime.GC()
	if err := microTimings(h, c, pop, m); err != nil {
		return nil, nil, err
	}
	if err := replayTiming(h, tt.stateDir, m); err != nil {
		return nil, nil, err
	}
	return m, chk, nil
}

// spansBefore returns the prefix of spans (ordered by start) that began
// before t.
func spansBefore(spans []span, t int64) []span {
	for i, s := range spans {
		if s.Start >= t {
			return spans[:i]
		}
	}
	return spans
}
