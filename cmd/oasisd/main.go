// Command oasisd hosts one or more OASIS-secured services over TCP.
//
// Each -svc flag names a service and its policy file; -facts loads ground
// facts into a shared store whose relations become environmental
// predicates on every hosted service; -peer registers the address of a
// service hosted by another oasisd process so that callback validation of
// its certificates works across processes.
//
//	oasisd -addr :7070 \
//	    -svc login=login.policy -svc files=files.policy \
//	    -facts facts.txt \
//	    -peer national=10.0.0.7:7070
//
// Policy files use the syntax documented in the policy package; fact files
// hold one fact per line: `relation arg1 arg2 ...` (arguments are atoms,
// integers, or "quoted strings"; blank lines and #-comments are ignored).
//
// Within one process, hosted services share an event broker, so active
// revocation (membership monitoring, session-tree collapse) is immediate.
// Across processes, certificates are validated by callback, and -relay-peer
// bridges the event brokers so revocations propagate actively between
// daemons too:
//
//	oasisd -addr :7070 -node A -svc login=login.policy \
//	    -relay-peer B=10.0.0.8:7070
//	oasisd -addr :7070 -node B -svc files=files.policy \
//	    -peer login=10.0.0.7:7070 -relay-peer A=10.0.0.7:7070
//
// Peer calls go through a resilient caller (per-call deadlines, retries
// for idempotent methods, per-service circuit breaker). -revalidate,
// -stale-grace and -heartbeat bound degraded validation while a peer is
// unreachable (see DESIGN.md Sect. 8).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/cmdutil"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/sign"
	"repro/internal/store"
)

// The durable log is the daemon's journal implementation.
var _ core.Journal = (*durable.Log)(nil)

// heartbeatDeadlineFactor is how many heartbeat periods of silence declare
// an issuer dead: the monitor's timeout, the startup log line, and the
// documentation all derive from this one constant (an earlier version
// hard-coded the multiplier in two places, and the log drifted from the
// behaviour when one of them changed).
const heartbeatDeadlineFactor = 3

// relayQueueCapacity bounds the per-peer relay dispatch queue; overflow
// drops the oldest events (counted in relay_dropped_total) rather than
// growing without bound while a peer is partitioned.
const relayQueueCapacity = 256

// defaultShutdownGrace bounds the drain after the first shutdown signal;
// past it (or on a second signal) the daemon stops waiting and forces the
// exit instead of hanging around half-dead.
const defaultShutdownGrace = 15 * time.Second

// httpMaxInflight is the admission cap of the in-process -http-addr
// gateway. A convenience endpoint gets a fixed sane bound; deployments
// that need to tune edge admission run cmd/oasisgw, which exposes every
// knob.
const httpMaxInflight = 256

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		facts      = flag.String("facts", "", "facts file (relation arg1 arg2 per line)")
		node       = flag.String("node", "", "node name for cross-process event relaying (default: the listen address)")
		revalidate = flag.Duration("revalidate", 0, "re-confirm cached foreign certificates after this age (0 = cache until revoked)")
		batchWin   = flag.Duration("batch-window", 0, "coalesce concurrent callback validations per issuer for up to this long (0 = default window, negative = disable batching)")
		staleGrace = flag.Duration("stale-grace", 0, "serve previously-confirmed certificates for this long when the issuer is unreachable (0 = fail closed immediately)")
		heartbeat  = flag.Duration("heartbeat", 0, fmt.Sprintf(
			"emit and sweep liveness heartbeats at this period; silence past %dx the period synthetically revokes (0 = off)",
			heartbeatDeadlineFactor))
		obsAddr   = flag.String("obs-addr", "", "serve /metrics, /trace and /debug/pprof on this address (empty = off)")
		httpAddr  = flag.String("http-addr", "", "serve the HTTP/JSON edge gateway (POST /validate, /activate, /appoint, /revoke) on this address (empty = off)")
		httpCache = flag.Bool("http-cache", false, "cache /validate verdicts in the embedded gateway, invalidated by this broker's revocation events (peer revocations invalidate only when bridged with -relay-peer)")
		httpCMax  = flag.Int("http-cache-max", 65536, "bound the embedded gateway's verdict cache to this many entries (0 = unbounded)")
		shutGr    = flag.Duration("shutdown-grace", defaultShutdownGrace, "force exit if shutdown has not drained within this long of the first signal")
		stateDir  = flag.String("state-dir", "", "journal issued credentials, appointments, facts and signing keys here; recovered on restart (empty = ephemeral)")
		follow    = flag.String("follow", "", "run as a read replica of the oasisd at this address: replicate its journal, serve validation locally, proxy writes (excludes -svc and -state-dir)")
		replStale = flag.Duration("repl-stale", 10*time.Second, "with -follow: refuse validation reads once the leader has been silent this long (fail closed)")
		replLease = flag.Duration("repl-lease", 3*time.Second, "with -state-dir: write-proxy lease TTL granted to followers")
		ecrMax    = flag.Int("ecr-cache-max", 0, "bound each service's ECR validation cache to this many entries, evicting cold verdicts (0 = unbounded)")
		acBytes   = flag.Int64("auto-compact-bytes", 0, "live-compact the journal when the active generation exceeds this many bytes (0 = compact only at shutdown)")
		acGarb    = flag.Int("auto-compact-garbage", 0, "live-compact the journal after this many superseding records (revocations, retractions; 0 = off)")
		svcs      multiFlag
		peers     multiFlag
		relayTo   multiFlag
	)
	flag.Var(&svcs, "svc", "service to host: name=policyfile (repeatable)")
	flag.Var(&peers, "peer", "remote service address: name=host:port (repeatable)")
	flag.Var(&relayTo, "relay-peer", "relay revocation events to another oasisd: node=host:port (repeatable)")
	flag.Parse()
	if *node == "" {
		*node = *addr
	}

	cfg := daemonConfig{
		addr: *addr, factsPath: *facts, node: *node,
		revalidate: *revalidate, staleGrace: *staleGrace, heartbeat: *heartbeat,
		batchWindow: *batchWin,
		obsAddr:     *obsAddr, httpAddr: *httpAddr, stateDir: *stateDir,
		follow: *follow, replStale: *replStale, replLease: *replLease,
		httpCache: *httpCache, httpCacheMax: *httpCMax,
		shutdownGrace: *shutGr,
		ecrCacheMax:   *ecrMax, autoCompactBytes: *acBytes, autoCompactGarbage: *acGarb,
		svcs: svcs, peers: peers, relayTo: relayTo,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "oasisd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr        string
	factsPath   string
	node        string
	revalidate  time.Duration
	staleGrace  time.Duration
	heartbeat   time.Duration
	batchWindow time.Duration
	obsAddr     string
	httpAddr    string
	stateDir    string

	// follow runs this daemon as a read replica of the named leader;
	// replStale bounds how stale its validation reads may get, and
	// replLease is the write-proxy lease TTL a journaling daemon grants
	// to its own followers.
	follow    string
	replStale time.Duration
	replLease time.Duration

	// httpCache enables the embedded gateway's event-invalidated verdict
	// cache, fed by a direct tap on the local broker (always "attached":
	// an in-process subscription cannot be lost short of process death).
	httpCache    bool
	httpCacheMax int

	// shutdownGrace bounds the drain after the first shutdown signal
	// (0 selects defaultShutdownGrace).
	shutdownGrace time.Duration

	// Capacity knobs (E16): bound the resident footprint of a long-lived
	// daemon — the per-service validation cache and the on-disk journal.
	ecrCacheMax        int
	autoCompactBytes   int64
	autoCompactGarbage int

	svcs    []string
	peers   []string
	relayTo []string
}

func run(cfg daemonConfig) error {
	addr, factsPath, node := cfg.addr, cfg.factsPath, cfg.node
	svcs, peers, relayTo := cfg.svcs, cfg.peers, cfg.relayTo
	if cfg.follow != "" {
		// A follower's services come from the leader's journal, and its
		// durable state IS the leader's journal: hosting or journaling
		// locally would fork the history it replicates.
		if len(svcs) > 0 {
			return fmt.Errorf("-follow cannot be combined with -svc: a replica's services come from the leader")
		}
		if cfg.stateDir != "" {
			return fmt.Errorf("-follow cannot be combined with -state-dir: a replica's durable state is the leader's journal")
		}
	} else if len(svcs) == 0 {
		return fmt.Errorf("at least one -svc name=policyfile is required (or -follow a leader)")
	}

	// Observability: the registry and tracer always exist (recording is
	// cheap and nil-safe throughout the stack); the HTTP exposition below
	// only starts when -obs-addr is set. Liveness trace events are echoed
	// to stdout so issuer deaths stay visible in the daemon log.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(4096)
	tracer.Echo(os.Stdout, "liveness")
	// Process-level resident-memory gauges: together with the per-service
	// core_resident_crs and core_ecr_cache_entries gauges they answer the
	// capacity question (bytes per resident principal) on a live daemon.
	obs.RegisterRuntimeMetrics(reg)

	broker := event.NewBroker()
	defer broker.Close()
	reg.Func("event_published_total", func() uint64 { p, _ := broker.Stats(); return p })
	reg.Func("event_delivered_total", func() uint64 { _, d := broker.Stats(); return d })
	reg.Func("event_pending", func() uint64 { return uint64(max(broker.Pending(), 0)) })

	// The caller used for callback validation: local services are
	// reached in-process; peers over TCP through a small connection pool
	// (no head-of-line blocking across concurrent validations). The
	// resilient wrapper adds per-call deadlines, retries for idempotent
	// methods, and a per-service circuit breaker so a dead peer fails
	// fast instead of stalling every validation.
	local := rpc.NewLoopback()
	directory := rpc.NewDirectoryPool(10*time.Second, 4)
	directory.Instrument(reg)
	defer directory.Close()
	for _, p := range peers {
		name, peerAddr, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("bad -peer %q, want name=host:port", p)
		}
		directory.Add(name, peerAddr)
	}
	// localNames is filled as services are created — at startup on a
	// leader, at replication time on a follower (which is why it is a
	// lock-guarded set rather than a bare map).
	localNames := newNameSet()
	caller := rpc.NewResilientCaller(
		splitCaller{local: local, remote: directory, localNames: localNames},
		rpc.ResilientConfig{CallTimeout: 10 * time.Second, Obs: reg, Trace: tracer},
	)

	// Durable state: recover the journal before anything issues or
	// validates, so pre-crash certificates keep answering authoritatively
	// the moment the listener opens.
	var dlog *durable.Log
	recovered := durable.NewState()
	if cfg.stateDir != "" {
		var err error
		dlog, err = durable.Open(durable.Options{
			Dir:                cfg.stateDir,
			Obs:                reg,
			AutoCompactBytes:   cfg.autoCompactBytes,
			AutoCompactGarbage: cfg.autoCompactGarbage,
		})
		if err != nil {
			return fmt.Errorf("recover state from %s: %w", cfg.stateDir, err)
		}
		defer func() {
			// Clean shutdown: seal the journal behind a snapshot so the
			// next start replays one file instead of the whole history.
			if err := dlog.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "oasisd: compact state:", err)
			}
			if err := dlog.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "oasisd: close state:", err)
			}
		}()
		recovered, err = dlog.Recovered()
		if err != nil {
			return fmt.Errorf("decode recovered state: %w", err)
		}
		rs := dlog.ReplayStats()
		fmt.Printf("durable state in %s: replayed %d records (snapshot gen %d loaded=%v, %d torn bytes discarded) in %v\n",
			cfg.stateDir, rs.Records, rs.SnapshotGen, rs.SnapshotLoaded, rs.TruncatedBytes, rs.Elapsed)
	}

	db := store.New()
	var relations []string
	seenRel := make(map[string]bool)
	// Journal-recovered facts first, silently: no observer is registered
	// yet, so replay does not re-journal or trigger membership checks.
	for _, f := range recovered.Facts {
		if _, err := db.Assert(f.Relation, f.Tuple...); err != nil {
			return fmt.Errorf("replay fact %s: %w", f.Relation, err)
		}
		if !seenRel[f.Relation] {
			seenRel[f.Relation] = true
			relations = append(relations, f.Relation)
		}
	}
	if dlog != nil {
		// From here on, every fact mutation is journaled.
		db.Observe(dlog.FactChanged)
	}
	if factsPath != "" {
		text, err := os.ReadFile(factsPath)
		if err != nil {
			return fmt.Errorf("read facts: %w", err)
		}
		loaded, err := cmdutil.LoadFacts(db, string(text))
		if err != nil {
			return fmt.Errorf("load facts: %w", err)
		}
		for _, rel := range loaded {
			if !seenRel[rel] {
				seenRel[rel] = true
				relations = append(relations, rel)
			}
		}
	}

	// Liveness monitoring for degraded validation: hosted services emit
	// heartbeats every period, and validated foreign certificates are
	// watched — an issuer silent past 3x the period is treated as revoked,
	// cutting any stale-grace window short.
	var hb *event.HeartbeatMonitor
	if cfg.heartbeat > 0 {
		hb = event.NewHeartbeatMonitor(broker, clock.Real{}, heartbeatDeadlineFactor*cfg.heartbeat)
		hb.Instrument(reg, tracer)
		defer hb.Close()
	}

	server := rpc.NewTCPServer()
	server.Instrument(reg)
	if dlog != nil {
		// Every journaling daemon is a potential leader: serve the
		// journal as a replication stream and grant write-proxy leases.
		ship := replica.NewShipper(replica.ShipperConfig{
			Log: dlog, Node: node, LeaseTTL: cfg.replLease, Obs: reg,
		})
		ship.Register(server)
		fmt.Printf("serving journal replication (%s/%s, lease %v)\n",
			replica.Service, replica.MethodSubscribe, ship.LeaseTTL())
	}
	if cfg.follow != "" {
		// Follower mode: replicate the leader's journal into local
		// read-only services. Writes (and the replicated services' own
		// callback validations to third parties) go through a caller
		// that never loops back into this process.
		directory.Add(replica.Service, cfg.follow)
		leaderCaller := rpc.NewResilientCaller(directory,
			rpc.ResilientConfig{CallTimeout: 10 * time.Second, Obs: reg, Trace: tracer})
		follower, err := replica.NewFollower(replica.FollowerConfig{
			Leader: cfg.follow,
			Broker: broker,
			Store:  db,
			Caller: leaderCaller,
			Register: func(name string, h rpc.Handler) {
				directory.Add(name, cfg.follow)
				local.Register(name, h)
				server.Register(name, h)
				localNames.add(name)
				fmt.Printf("replicating service %s (validation local, writes proxied)\n", name)
			},
			StaleAfter:  cfg.replStale,
			ECRCacheMax: cfg.ecrCacheMax,
			Obs:         reg,
		})
		if err != nil {
			return err
		}
		follower.Run()
		defer follower.Close()
		fmt.Printf("following leader %s (reads fail closed after %v of silence)\n", cfg.follow, cfg.replStale)
	}
	var hosted []*core.Service
	for _, s := range svcs {
		name, policyPath, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("bad -svc %q, want name=policyfile", s)
		}
		text, err := os.ReadFile(policyPath)
		if err != nil {
			return fmt.Errorf("read policy for %s: %w", name, err)
		}
		pol, err := policy.Parse(string(text))
		if err != nil {
			return fmt.Errorf("policy for %s: %w", name, err)
		}
		svcCfg := core.Config{
			Name:             name,
			Policy:           pol,
			Broker:           broker,
			Caller:           caller,
			CacheValidations: true,
			CacheMaxEntries:  cfg.ecrCacheMax,
			RevalidateAfter:  cfg.revalidate,
			StaleGrace:       cfg.staleGrace,
			BatchWindow:      cfg.batchWindow,
			Heartbeats:       hb,
			Obs:              reg,
			Trace:            tracer,
		}
		ss := recovered.Services[name]
		if dlog != nil {
			svcCfg.Journal = dlog
			if ss != nil && len(ss.Secrets) > 0 {
				// Restore the signing ring so certificates issued before
				// the crash still verify.
				ring, err := sign.NewKeyRingFromSecrets(ss.Secrets, ss.Retain, nil)
				if err != nil {
					return fmt.Errorf("restore keys for %s: %w", name, err)
				}
				svcCfg.KeyRing = ring
			}
		}
		svc, err := core.NewService(svcCfg)
		if err != nil {
			return err
		}
		defer svc.Close()
		if dlog != nil {
			if svcCfg.KeyRing == nil {
				// First boot for this service: make its fresh secrets
				// durable before it signs anything with them. The
				// install flows through the mutation sequencer so it
				// shares the journal stream with the certificates the
				// keys will sign.
				if err := svc.InstallKeys(); err != nil {
					return fmt.Errorf("journal keys for %s: %w", name, err)
				}
			}
			if ss != nil {
				nCR, nAppt := 0, 0
				for serial, cr := range ss.CRs {
					if err := svc.RestoreCR(serial, cr.Subject, cr.Holder, cr.Revoked, cr.Reason); err != nil {
						return fmt.Errorf("restore credential records for %s: %w", name, err)
					}
					nCR++
				}
				for _, a := range ss.Appts {
					svc.RestoreAppointment(a.Cert, a.Revoked)
					nAppt++
				}
				if nCR > 0 || nAppt > 0 {
					fmt.Printf("restored %s: %d credential records, %d appointments\n", name, nCR, nAppt)
				}
			}
		}
		mapping := make(map[string]string, len(relations))
		for _, rel := range relations {
			svc.Env().RegisterStore(rel, db, rel)
			mapping[rel] = rel
		}
		if len(mapping) > 0 {
			svc.WatchStore(db, mapping)
		}
		h := svc.Handler()
		local.Register(name, h)
		server.Register(name, h)
		hosted = append(hosted, svc)
		localNames.add(name)
		fmt.Printf("hosting service %s (policy %s)\n", name, policyPath)
	}

	// Cross-process event relaying: revocation events published by the
	// local broker travel to the configured peer daemons, so active
	// revocation spans processes.
	relay := event.NewRelay(broker, node)
	relay.Instrument(reg)
	defer relay.Close()
	server.Register(eventsService(node), func(method string, body []byte) ([]byte, error) {
		ev, err := event.UnmarshalEvent(body)
		if err != nil {
			return nil, err
		}
		return nil, relay.Receive(ev)
	})
	for _, rp := range relayTo {
		peerNode, peerAddr, ok := strings.Cut(rp, "=")
		if !ok {
			return fmt.Errorf("bad -relay-peer %q, want node=host:port", rp)
		}
		directory.Add(eventsService(peerNode), peerAddr)
		target := eventsService(peerNode)
		// Bounded async delivery: one worker goroutine per peer drains a
		// drop-oldest queue, so a slow or partitioned peer neither stalls
		// local publication nor leaks a goroutine per event (the previous
		// `go caller.Call(...)` per event accumulated one goroutine per
		// publication inside retry/backoff while a peer was down). The
		// resilient caller still retries transient drops (publish is
		// idempotent) and fast-fails while the breaker is open; overflow
		// losses are counted, and peers re-validate by callback anyway.
		q := event.NewPeerQueue(relayQueueCapacity, func(ev event.Event) error {
			body, err := event.MarshalEvent(ev)
			if err != nil {
				return err
			}
			_, err = caller.Call(target, "publish", body)
			return err
		})
		q.Instrument(reg, peerNode)
		defer q.Close()
		relay.AddPeer(peerNode, func(ev event.Event) error {
			if !q.Enqueue(ev) {
				// Queue already closed (shutdown ordering): surface it so
				// the relay's failure counter sees the drop instead of
				// reporting a clean send.
				return event.ErrClosed
			}
			return nil
		})
		fmt.Printf("relaying events to node %s at %s (queue %d, drop-oldest)\n",
			peerNode, peerAddr, relayQueueCapacity)
	}

	// Edge revocation feed: oasisgw instances running a verdict cache
	// subscribe here and receive every local revocation (including the
	// heartbeat monitor's synthetic ones) as stream events. Each
	// subscriber is decoupled through its own bounded drop-oldest queue,
	// so a slow edge can never stall Publish.
	feed := event.NewFeed(broker, relayQueueCapacity)
	feed.Instrument(reg)
	defer feed.Close()
	server.RegisterStream(event.FeedService, event.FeedMethod,
		func(method string, body []byte, send func([]byte) error) (func(), error) {
			return feed.Subscribe(send)
		})

	// Heartbeat loop: every period, each hosted service announces the
	// certificates it issued and the monitor sweeps for silent issuers.
	stopHB := make(chan struct{})
	defer close(stopHB)
	if hb != nil {
		go func() {
			ticker := time.NewTicker(cfg.heartbeat)
			defer ticker.Stop()
			for {
				select {
				case <-stopHB:
					return
				case <-ticker.C:
					for _, svc := range hosted {
						svc.EmitHeartbeats()
					}
					// Deaths surface through the monitor's liveness
					// trace events, echoed to stdout above.
					hb.Sweep()
				}
			}
		}()
		fmt.Printf("heartbeats every %v (deadline %v)\n",
			cfg.heartbeat, heartbeatDeadlineFactor*cfg.heartbeat)
	}

	// Static policy consistency check across everything hosted here
	// (peer services are unknown to this process, so cross-process
	// references surface as warnings, not errors).
	checker := policy.NewChecker()
	for _, svc := range hosted {
		checker.AddService(svc.Name(), svc.Policy(), svc.Env().Names())
	}
	for _, p := range peers {
		if name, _, ok := strings.Cut(p, "="); ok {
			checker.AddExternal(name)
		}
	}
	for _, issue := range checker.Check() {
		fmt.Printf("policy check %s\n", issue)
	}

	grace := cfg.shutdownGrace
	if grace <= 0 {
		grace = defaultShutdownGrace
	}

	if cfg.obsAddr != "" {
		obsLn, err := net.Listen("tcp", cfg.obsAddr)
		if err != nil {
			return fmt.Errorf("listen obs %s: %w", cfg.obsAddr, err)
		}
		// A hardened server, not a bare http.Serve: the obs port faces the
		// same slow clients as any other, and it must drain on exit instead
		// of dropping scrapes mid-response.
		obsSrv := httpx.NewServer(obs.Handler(reg, tracer))
		go obsSrv.Serve(obsLn)              //nolint:errcheck // dies with the daemon
		defer httpx.Shutdown(obsSrv, grace) //nolint:errcheck // best-effort drain on the way out
		fmt.Printf("observability on http://%s/ (/metrics, /trace, /debug/pprof)\n", obsLn.Addr())
	}

	// In-process HTTP edge: the same gateway cmd/oasisgw serves standalone,
	// mounted over this daemon's resilient caller so /validate coalesces
	// into validate_batch flights and local services are reached in-process.
	if cfg.httpAddr != "" {
		fronted := localNames.names()
		for _, p := range peers {
			if name, _, ok := strings.Cut(p, "="); ok {
				fronted = append(fronted, name)
			}
		}
		sort.Strings(fronted)
		validator := core.NewRemoteValidator("oasisd", caller, cfg.batchWindow, reg)
		var cache *core.EdgeCache
		if cfg.httpCache {
			// In-process feed: a direct broker tap. It cannot be severed
			// short of process death, so the cache attaches once and stays
			// live — the fail-closed reconnect dance is for cmd/oasisgw.
			cache = core.NewEdgeCache(validator, cfg.httpCacheMax)
			cancelTap := broker.Tap(cache.HandleEvent)
			defer cancelTap()
			cache.Attach()
			fmt.Printf("http gateway verdict cache on (max %d entries)\n", cfg.httpCacheMax)
		}
		gw, err := gateway.New(gateway.Config{
			Caller:      caller,
			Validator:   validator,
			Cache:       cache,
			Services:    fronted,
			Breaker:     caller,
			MaxInflight: httpMaxInflight,
			Obs:         reg,
		})
		if err != nil {
			return fmt.Errorf("http gateway: %w", err)
		}
		httpLn, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			return fmt.Errorf("listen http %s: %w", cfg.httpAddr, err)
		}
		httpSrv := httpx.NewServer(gw.Handler())
		go httpSrv.Serve(httpLn)             //nolint:errcheck // dies with the daemon
		defer httpx.Shutdown(httpSrv, grace) //nolint:errcheck // best-effort drain on the way out
		fmt.Printf("http gateway on http://%s/ (POST /validate, /activate, /appoint, /revoke)\n", httpLn.Addr())
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	fmt.Printf("oasisd listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	// Capacity 2: the buffer must hold a second signal arriving while the
	// drain select is busy — the previous version stopped draining sig
	// after the first one, so repeated Ctrl-C was swallowed and a wedged
	// drain could only be ended with SIGKILL.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	err = awaitShutdown(sig, serveErr, func() { server.Close() }, grace)
	if errors.Is(err, errForcedShutdown) {
		// Deferred cleanup (journal compaction, service close) still gets a
		// bounded chance; if it wedges too, the process dies regardless.
		time.AfterFunc(grace, func() { os.Exit(1) })
	}
	return err
}

// errForcedShutdown reports an exit that did not finish draining: a
// second signal or a blown shutdown deadline.
var errForcedShutdown = errors.New("forced shutdown before drain completed")

// awaitShutdown runs the daemon's termination protocol: block until the
// first signal (or until the listener dies on its own — an accept error
// must surface and end the daemon, not leave it running deaf), then stop
// the server and wait for the drain, bounded by a second signal or the
// grace deadline. It is deliberately free of daemon state so the
// protocol is testable with plain channels.
func awaitShutdown(sig <-chan os.Signal, serveErr <-chan error, stop func(), grace time.Duration) error {
	select {
	case err := <-serveErr:
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return errors.New("rpc listener closed unexpectedly")
	case <-sig:
	}
	fmt.Println("shutting down")
	go stop()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case err := <-serveErr:
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	case <-sig:
		fmt.Fprintln(os.Stderr, "oasisd: second signal, forcing exit")
		return fmt.Errorf("%w: second signal", errForcedShutdown)
	case <-timer.C:
		fmt.Fprintf(os.Stderr, "oasisd: drain exceeded %v, forcing exit\n", grace)
		return fmt.Errorf("%w: drain exceeded %v", errForcedShutdown, grace)
	}
}

// eventsService names the relay endpoint a node exposes on its rpc server.
func eventsService(node string) string { return "_events:" + node }

// nameSet is a concurrency-safe string set: follower daemons add service
// names as the replication stream materialises them, racing the callers
// that consult the set.
type nameSet struct {
	mu sync.RWMutex
	m  map[string]bool
}

func newNameSet() *nameSet { return &nameSet{m: make(map[string]bool)} }

func (s *nameSet) add(name string) {
	s.mu.Lock()
	s.m[name] = true
	s.mu.Unlock()
}

func (s *nameSet) has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name]
}

func (s *nameSet) names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for n := range s.m {
		out = append(out, n)
	}
	return out
}

// splitCaller routes calls to in-process services via the loopback and to
// everything else via the TCP directory.
type splitCaller struct {
	local      *rpc.Loopback
	remote     *rpc.Directory
	localNames *nameSet
}

func (c splitCaller) Call(service, method string, body []byte) ([]byte, error) {
	if c.localNames.has(service) {
		return c.local.Call(service, method, body)
	}
	return c.remote.Call(service, method, body)
}
