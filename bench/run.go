package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/names"
	"repro/internal/rpc"
)

// runConfig is one invocation: one workload, one seed, one mode.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  int  // measured time, split over the phases
	Quick    bool // smoke scale; results are stamped not comparable
	Trace    bool
	Scale    scale
}

// rounds is how many times the A, B, C phase cycle repeats within the
// measured seconds.
const rounds = 4

// windowsPerRound is how many windows each round's open-loop read phase
// is cut into; the reported percentile is the median over all windows of
// each window's percentile.
const windowsPerRound = 3

// measured is everything one run produced.
type measured struct {
	Metrics map[string]float64 // by BENCHMARK.json name
	Counts  map[string]int     // sample count behind each metric
	Extra   map[string]float64 // figures outside the mode's gated set
}

func newMeasured() *measured {
	return &measured{Metrics: map[string]float64{}, Counts: map[string]int{}, Extra: map[string]float64{}}
}

func (m *measured) set(name string, v float64, n int) {
	m.Metrics[name] = v
	m.Counts[name] = n
}

// pickCount is the length of the generated request sequence; a run that
// sends more wraps around.
const pickCount = 1 << 19

// readers is the validate side of the generator: one gateway client per
// worker, or the direct OW2 validator, by workload.
type readers struct {
	gw     [workers]*gatewayClient
	direct *ow2Validator
	c      *creds
	chk    *checker
	tr     *tracer // nil in the untraced run

	// picks is the workload's one request sequence; every phase, round
	// and worker takes the next request off it. A scan that restarted
	// per phase would find an eighth of the population still cached from
	// the previous phase's scan; one continuous scan finds nothing.
	picks []pick
	next  atomic.Int64
}

func newReaders(t *topology, cfg runConfig, c *creds, chk *checker, tr *tracer) (*readers, error) {
	r := &readers{c: c, chk: chk, tr: tr, picks: genPicks(cfg.Seed, cfg.Workload, pickCount, cfg.Scale)}
	if cfg.Workload == wlDirectOW2 {
		var wrap func(rpc.Caller) rpc.Caller
		if tr != nil {
			wrap = func(c rpc.Caller) rpc.Caller { return tracedCaller{tr: tr, next: c} }
		}
		var err error
		r.direct, err = dialValidator(t.LeaderAddr, workers, wrap)
		return r, err
	}
	for w := range r.gw {
		r.gw[w] = newGatewayClient(t.GatewayURL)
	}
	return r, nil
}

func (r *readers) close() {
	if r.direct != nil {
		r.direct.close()
	}
	for _, g := range r.gw {
		if g != nil {
			g.close()
		}
	}
}

// read performs the next validation of the sequence on the given
// worker's connection and checks its verdict.
func (r *readers) read(worker int) bool {
	p := r.picks[int(r.next.Add(1)-1)%len(r.picks)]
	h := r.c.of(p)
	span := -1
	if r.tr != nil {
		req := r.tr.newReq()
		span = r.tr.begin("loadgen:validate", req)
		if r.direct == nil {
			r.gw[worker].reqID = req
		}
	}
	var valid bool
	var err error
	if r.direct != nil {
		valid, err = r.direct.validate(h)
	} else {
		valid, err = r.gw[worker].validate(h.Body)
	}
	if r.tr != nil {
		r.tr.end(span)
	}
	return r.chk.verdict(p.Class, valid, err)
}

// sessions runs the write-side scripts: activate twice, validate three
// times, revoke the root role, then watch the revocation arrive at the
// edge and at the replica. One goroutine, one request in flight.
type sessions struct {
	gw       *gatewayClient
	follower *ow2Validator
	chk      *checker
	names    []string
	tr       *tracer                    // nil in the untraced run
	watch    func(login cert.RMC) error // traced run: called before the revoke is sent

	// Per-session timings, µs; only sessions inside a measured phase are
	// recorded (record is off for the ones that run beside a closed loop).
	record      bool
	activate    []float64
	revokeAck   []float64
	edgeDeny    []float64
	replicaDeny []float64
	whole       []float64 // whole script, first request to last
	roundStart  []int     // index of each round's first recorded session
	ended       []holder  // sessions whose revocation was acknowledged
}

// denyTimeout bounds the wait for a revocation to reach a tier.
const denyTimeout = 2 * time.Second

func (s *sessions) run(i int) bool {
	name := s.names[i]
	pid := principalID(name)
	begun := time.Now()
	login, err := s.gw.activate("login", pid, names.MustRole(loginUser, names.Atom(name)), nil)
	if !s.chk.op(true, err) {
		return false
	}
	t0 := time.Now()
	files, err := s.gw.activate("files", pid, names.MustRole(filesReader, names.Atom(name)), []cert.RMC{login})
	actUs := micros(time.Since(t0))
	if !s.chk.op(true, err) {
		return false
	}
	h := holder{Name: name, Login: login, Files: files}
	if h.Body, err = validateBody(pid, files); err != nil {
		return s.chk.op(false, err)
	}
	for k := 0; k < 3; k++ {
		valid, err := s.gw.validate(h.Body)
		if !s.chk.verdict(classLive, valid, err) {
			return false
		}
	}
	// The replica refuses a certificate it has not heard of yet, which
	// from outside looks just like a revocation. Wait (untimed) until it
	// has applied the issue, so that its first deny below is the revoke.
	for t0 = time.Now(); ; {
		valid, err := s.follower.validate(&h)
		if !s.chk.op(err == nil, err) {
			return false
		}
		if valid {
			break
		}
		if time.Since(t0) > denyTimeout {
			return s.chk.op(false, fmt.Errorf("serial %d: replica never saw the certificate issued", files.Ref.Serial))
		}
	}
	if s.watch != nil {
		if err := s.watch(login); err != nil {
			return s.chk.op(false, err)
		}
	}
	span := -1
	if s.tr != nil {
		s.gw.reqID = s.tr.newReq()
		span = s.tr.begin("loadgen:revoke", s.gw.reqID)
	}
	t0 = time.Now()
	did, err := s.gw.revoke("login", login.Ref.Serial)
	ackUs := micros(time.Since(t0))
	if s.tr != nil {
		s.tr.end(span)
		s.gw.reqID = 0
	}
	if err == nil && !did {
		err = fmt.Errorf("revoke of login serial %d was a no-op", login.Ref.Serial)
	}
	if !s.chk.op(true, err) {
		return false
	}
	// Alternate the two tiers until each has denied the dependent
	// files.reader certificate; keep asking a tier that already denied,
	// so that a verdict flipping back is caught.
	serial := files.Ref.Serial
	var edgeUs, replUs float64
	for edgeUs == 0 || replUs == 0 {
		if time.Since(t0) > denyTimeout {
			return s.chk.op(false, fmt.Errorf("serial %d: revocation not visible at both tiers after %v", serial, denyTimeout))
		}
		valid, err := s.gw.validate(h.Body)
		if !s.chk.op(err == nil && !s.chk.observe("edge", serial, valid), err) {
			return false
		}
		if !valid && edgeUs == 0 {
			edgeUs = micros(time.Since(t0))
		}
		valid, err = s.follower.validate(&h)
		if !s.chk.op(err == nil && !s.chk.observe("replica", serial, valid), err) {
			return false
		}
		if !valid && replUs == 0 {
			replUs = micros(time.Since(t0))
		}
	}
	if s.record {
		s.activate = append(s.activate, actUs)
		s.revokeAck = append(s.revokeAck, ackUs)
		s.edgeDeny = append(s.edgeDeny, edgeUs)
		s.replicaDeny = append(s.replicaDeny, replUs)
		s.whole = append(s.whole, micros(time.Since(begun)))
	}
	s.ended = append(s.ended, h)
	return true
}

// metrics reports the write-side timings of the recorded sessions: the
// median over all of them, and for the p90 the median over rounds of
// each round's p90, so that one bad round does not set the figure.
func (s *sessions) metrics(m *measured) {
	n := len(s.revokeAck)
	p90 := func(v []float64) float64 {
		var per []float64
		for r, from := range s.roundStart {
			to := n
			if r+1 < len(s.roundStart) {
				to = s.roundStart[r+1]
			}
			if beyond(to-from, 0.9) >= minBeyond {
				per = append(per, tail(v[from:to], 0.9))
			}
		}
		if len(per) == 0 {
			return tail(v, 0.9)
		}
		return median(per)
	}
	m.set("activate_p50_us", median(s.activate), n)
	m.set("revoke_ack_p50_us", median(s.revokeAck), n)
	m.set("revoke_ack_p90_us", p90(s.revokeAck), n)
	m.set("revoke_to_edge_deny_p50_us", median(s.edgeDeny), n)
	m.set("revoke_to_edge_deny_p90_us", p90(s.edgeDeny), n)
	m.set("revoke_to_replica_deny_p50_us", median(s.replicaDeny), n)
	m.set("revoke_to_replica_deny_p90_us", p90(s.replicaDeny), n)
}

// driver is the generator of one run: the readers, the session scripts
// and the cursor into the session pool.
type driver struct {
	cfg         runConfig
	rd          *readers
	ss          *sessions
	nextSession int
}

func newDriver(cfg runConfig, t *topology, pop population, c *creds, chk *checker, tr *tracer) (*driver, error) {
	rd, err := newReaders(t, cfg, c, chk, tr)
	if err != nil {
		return nil, err
	}
	follower, err := dialValidator(t.FollowerAddr, 1, nil)
	if err != nil {
		rd.close()
		return nil, err
	}
	return &driver{cfg: cfg, rd: rd, ss: &sessions{
		gw: newGatewayClient(t.GatewayURL), follower: follower, chk: chk, tr: tr,
		names: pop.Churn,
	}}, nil
}

func (d *driver) close() {
	d.rd.close()
	d.ss.follower.close()
	d.ss.gw.close()
}

// read is a phase op reading on the calling worker's connection; read1
// reads on worker 1's, the one free while worker 0 runs session scripts.
func (d *driver) read(w, _ int) bool  { return d.rd.read(w) }
func (d *driver) read1(_, _ int) bool { return d.rd.read(1) }

// sessionsBeside runs the session scripts open-loop on one worker while
// other occupies the second; it returns when both have finished.
func (d *driver) sessionsBeside(dur time.Duration, record bool, other func()) (openResult, error) {
	n := int(dur.Seconds() * sessionRate)
	if d.nextSession+n > len(d.ss.names) {
		return openResult{}, fmt.Errorf("session pool exhausted: need %d more of %d", n, len(d.ss.names)-d.nextSession)
	}
	base := d.nextSession
	d.nextSession += n
	d.ss.record = record
	if record {
		d.ss.roundStart = append(d.ss.roundStart, len(d.ss.revokeAck))
	}
	var res openResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = runOpen(1, sessionRate, n, func(_, i int) bool { return d.ss.run(base + i) })
	}()
	other()
	wg.Wait()
	return res, nil
}

// runUntraced is the end-to-end run: real processes, real sockets,
// tracing off. It returns the gated metrics.
func runUntraced(cfg runConfig, h *harness, binDir string) (*measured, *checker, error) {
	sc := cfg.Scale
	pop := genPopulation(cfg.Seed, sc)
	chk := newChecker()
	m := newMeasured()

	// Set-up, several times over; the last topology is the one measured.
	var t *topology
	var c *creds
	var setups []float64
	for k := 0; k < sc.Setups; k++ {
		if t != nil {
			t.stop()
		}
		var err error
		if t, err = startProcTopology(h, binDir, pop, sc); err != nil {
			return nil, nil, err
		}
		rss0, _ := procRSS(t.proc.leader.cmd.Process.Pid)
		if c, err = populate(t, pop, sc); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t.proc.firstExec).Seconds())
		if rss1, err := procRSS(t.proc.leader.cmd.Process.Pid); err == nil && rss0 > 0 {
			// The leader's resident growth over set-up, per credential record.
			m.Extra["core.resident_bytes_per_cr"] = float64(rss1-rss0) / float64(2*(len(c.Live)+len(c.Revoked)))
		}
	}
	defer t.stop()
	m.set("setup_s", median(setups), len(setups))

	d, err := newDriver(cfg, t, pop, c, chk, nil)
	if err != nil {
		return nil, nil, err
	}
	defer d.close()
	if err := d.measure(t.proc, m); err != nil {
		return nil, nil, err
	}
	if err := scrapeProcs(t.proc, t.GatewayURL, m); err != nil {
		return nil, nil, err
	}
	rec, err := recoverRounds(t, c, d.ss.ended, chk, sc)
	if err != nil {
		return nil, nil, err
	}
	m.set("recover_s", median(rec), len(rec))
	att, failed := chk.attempted.Load(), chk.failed.Load()
	m.set("ok_ratio", float64(att-failed)/float64(att), int(att))
	return m, chk, nil
}

// measure drives the measured phases of the untraced run. The measured
// seconds are split A : B : C = 3 : 2 : 3 and cut into rounds.
//
//	A  open-loop reads on both workers at the workload's fixed rate
//	B  closed-loop reads on both workers
//	C  session scripts open-loop on one worker, open-loop reads on the other
//
// churn_revoke takes its read metrics beside the writes: A and C are one
// phase, and B's closed loop runs on one worker while the session scripts
// keep their schedule on the other.
func (d *driver) measure(pt *procTopology, m *measured) error {
	wl := d.cfg.Workload
	total := time.Duration(d.cfg.Seconds) * time.Second
	dA, dB, dC := total*3/8/rounds, total/4/rounds, total*3/8/rounds
	rateA, rateC := openRate[wl], churnReadRate(wl)
	chk := d.rd.chk

	// Warm-up: connections dialled, caches in steady state, runtimes warm.
	runClosed(workers, total/16, d.read)

	// The phases run interleaved in rounds — A B C, A B C, ... — so that
	// each metric samples the whole run: latency on a shared host drifts
	// over seconds, and one contiguous phase would sample one mood of it.
	var (
		reads    openResult // phase A reads of every round, due times made global
		sessLate []float64
		rps      []float64
		opsB     int64
		cpuB     time.Duration
	)
	// closedPhase is phase B of one round, with the servers' CPU time
	// taken around it.
	closedPhase := func(run func() (int64, time.Duration)) error {
		before, err := pt.serverCPU()
		if err != nil {
			return err
		}
		att0 := chk.attempted.Load()
		ok, elapsed := run()
		opsB += chk.attempted.Load() - att0
		rps = append(rps, float64(ok)/elapsed.Seconds())
		after, err := pt.serverCPU()
		cpuB += after - before
		return err
	}
	for r := 0; r < rounds; r++ {
		var a, s openResult
		var err error
		if wl != wlChurn {
			a = runOpen(workers, rateA, int(dA.Seconds()*rateA), d.read)
			err = closedPhase(func() (int64, time.Duration) { return runClosed(workers, dB, d.read) })
			if err != nil {
				return err
			}
			s, err = d.sessionsBeside(dC, true, func() { runOpen(1, rateC, int(dC.Seconds()*rateC), d.read1) })
		} else {
			s, err = d.sessionsBeside(dA+dC, true, func() { a = runOpen(1, rateC, int((dA+dC).Seconds()*rateC), d.read1) })
			if err != nil {
				return err
			}
			var sessErr error
			err = closedPhase(func() (ok int64, elapsed time.Duration) {
				_, sessErr = d.sessionsBeside(dB, false, func() { ok, elapsed = runClosed(1, dB, d.read1) })
				return ok, elapsed
			})
			err = errors.Join(err, sessErr)
		}
		if err != nil {
			return err
		}
		offset := time.Duration(r) * (dA + dC) // keeps rounds in distinct windows
		for i := 0; i < a.N; i++ {
			reads.Due = append(reads.Due, a.Due[i]+offset)
		}
		reads.Lat = append(reads.Lat, a.Lat...)
		reads.Late = append(reads.Late, a.Late...)
		reads.OK = append(reads.OK, a.OK...)
		reads.N += a.N
		sessLate = append(sessLate, s.Late...)
	}

	due, lat := reads.okLat()
	window := dA / windowsPerRound
	if wl == wlChurn {
		window = (dA + dC) / windowsPerRound
	}
	m.set("validate_p50_us", windowed(due, lat, window, 0.5), len(lat))
	m.set("validate_p90_us", windowed(due, lat, window, 0.9), len(lat))
	m.set("validate_rps", median(rps), int(median(rps)*(dB*rounds).Seconds()))
	m.set("server_cpu_us_per_op", ratio(micros(cpuB), float64(opsB)), int(opsB))
	d.ss.metrics(m)

	// Generator-side validity figures and tails, outside the gated set.
	m.Extra["loadgen.sched_late_p50_us"] = tail(reads.Late, 0.5)
	m.Extra["loadgen.sched_late_p99_us"] = tail(reads.Late, 0.99)
	m.Extra["loadgen.session_late_p99_us"] = tail(sessLate, 0.99)
	m.Extra["loadgen.session_p50_us"] = median(d.ss.whole)
	m.Extra["loadgen.validate_p99_us"] = tail(lat, 0.99)
	m.Extra["loadgen.revoke_ack_p99_us"] = tail(d.ss.revokeAck, 0.99)
	q, v, n := highestTail(lat)
	m.Extra[fmt.Sprintf("loadgen.validate_tail_p%g_us", q*100)] = v
	m.Counts["loadgen.validate_tail"] = n
	return nil
}

// tail is the q-quantile of v, or 0 when v is empty.
func tail(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return quantile(sortedCopy(v), q)
}

// recoverRounds stops gateway and follower, then kills the leader with
// SIGKILL and restarts it on the same state directory, Restarts times.
// Each round is timed from the exec to the first correct verdict on a
// certificate issued before the crash; then a sample of acknowledged
// revocations must still deny and a sample of live certificates must
// still validate.
func recoverRounds(t *topology, c *creds, ended []holder, chk *checker, sc scale) ([]float64, error) {
	pt := t.proc
	pt.gateway.kill()
	pt.follower.kill()
	revoked := append(append([]holder(nil), c.Revoked...), ended...)
	probe := &c.Live[0]
	var out []float64
	for r := 0; r < sc.Restarts; r++ {
		pt.leader.kill()
		start := time.Now()
		if err := pt.execLeader(); err != nil {
			return nil, err
		}
		var v *ow2Validator
		err := waitUntil("leader recovery", pt.leader, func() bool {
			if v == nil {
				var err error
				if v, err = dialValidator(t.LeaderAddr, 1, nil); err != nil {
					return false
				}
			}
			valid, err := v.validate(probe)
			return err == nil && valid
		})
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
		for i := 0; i < sc.Sample; i++ {
			h := &revoked[(i*len(revoked))/sc.Sample]
			valid, err := v.validate(h)
			if err == nil && valid {
				chk.failHard(fmt.Sprintf("restart %d: revoked serial %d validates again", r+1, h.Files.Ref.Serial))
			}
			chk.op(err == nil && !valid, err)
			h = &c.Live[(i*len(c.Live))/sc.Sample]
			valid, err = v.validate(h)
			chk.op(err == nil && valid, err)
		}
		v.close()
	}
	if len(out) == 0 {
		return nil, errors.New("no restart rounds configured")
	}
	return out, nil
}
