package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cert"
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
	"repro/internal/store"
)

// tracedTopology is the in-process twin of the multi-process deployment:
// the same three tiers, assembled from the layers' public constructors
// the way cmd/oasisd and cmd/oasisgw assemble them, listening on real
// loopback sockets, with every seam the benchmark can reach from outside
// wrapped to record a span. It is not the multi-process topology — one
// runtime, one heap, one scheduler — which is what trace.overhead_ratio
// is there to show.
type tracedTopology struct {
	tr  *tracer
	evs *eventLog

	stateDir  string                // the leader's journal directory
	dlog      *durable.Log          // the leader's journal
	broker    *event.Broker         // the leader's broker
	validator *core.RemoteValidator // the gateway's coalescing validator
	followRun time.Time             // when the follower was started

	leaderReg, fReg, gwReg *obs.Registry

	closers []func() // everything to stop, in order of creation
}

// eventLog timestamps what the event path does to each revocation topic,
// on the tracer's clock: the journal append that made it durable, the
// leader's publish, local delivery, arrival on a feed stream, and the
// follower applying it.
type eventLog struct {
	tr *tracer
	mu sync.Mutex
	at map[string]map[string]int64 // stage -> topic -> ns
}

// Stages of a revocation's journey, in order.
const (
	stJournaled = "journaled" // AppendGroup holding the cr- record returned
	stPublished = "published" // leader broker accepted the event (tap)
	stDelivered = "delivered" // a handler subscribed to the topic ran
	stFeedFrame = "feed"      // frame arrived on an event.Feed stream over OW2
	stApplied   = "applied"   // follower applied the shipped record
)

func newEventLog(tr *tracer) *eventLog {
	return &eventLog{tr: tr, at: make(map[string]map[string]int64)}
}

// mark records the first time topic reached stage.
func (l *eventLog) mark(stage, topic string) {
	if !l.tr.on.Load() {
		return
	}
	now := l.tr.now()
	l.mu.Lock()
	m := l.at[stage]
	if m == nil {
		m = make(map[string]int64)
		l.at[stage] = m
	}
	if _, seen := m[topic]; !seen {
		m[topic] = now
	}
	l.mu.Unlock()
}

// lag returns the time in µs from one (stage, topic) to another, if both
// were reached.
func (l *eventLog) lag(fromStage, fromTopic, toStage, toTopic string) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a, okA := l.at[fromStage][fromTopic]
	b, okB := l.at[toStage][toTopic]
	return float64(b-a) / 1e3, okA && okB
}

// tracedCaller wraps an rpc.Caller seam: one span per call.
type tracedCaller struct {
	tr   *tracer
	next rpc.Caller
}

func (c tracedCaller) Call(service, method string, body []byte) ([]byte, error) {
	id := c.tr.begin("rpc.call:"+service+"."+method, 0)
	out, err := c.next.Call(service, method, body)
	c.tr.end(id)
	return out, err
}

// tracedHandler wraps a server-side rpc.Handler seam.
func tracedHandler(tr *tracer, tier, service string, h rpc.Handler) rpc.Handler {
	return func(method string, body []byte) ([]byte, error) {
		id := tr.begin("handle:"+tier+"."+service+"."+method, 0)
		out, err := h(method, body)
		tr.end(id)
		return out, err
	}
}

// tracedJournal wraps the core.GroupJournal seam. Everything else the
// daemon asks of the journal (key installs, fact changes, the per-record
// hooks) is the embedded log's own.
type tracedJournal struct {
	*durable.Log
	tr  *tracer
	evs *eventLog
}

func (j tracedJournal) AppendGroup(recs []durable.Record, wait bool) error {
	name := "durable:append_async"
	if wait {
		name = "durable:append_wait"
	}
	id := j.tr.begin(name, 0)
	err := j.Log.AppendGroup(recs, wait)
	j.tr.end(id)
	for _, r := range recs {
		if r.Op == durable.OpCRRevoke {
			j.evs.mark(stJournaled, core.TopicCR(cert.CRR{Issuer: r.Service, Serial: r.Serial}))
		}
	}
	return err
}

// tracedHTTP wraps gateway.Handler(): one span per request, carrying the
// request id the generator put in the header.
func tracedHTTP(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		id := tr.begin("gateway:"+r.URL.Path, req)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// startTracedTopology assembles leader and gateway. The follower is
// started separately, after set-up has filled the journal, so that its
// catch-up from a cold start can be timed (replica.catchup_s).
func startTracedTopology(h *harness, tr *tracer, pop population, sc scale) (*topology, error) {
	tt := &tracedTopology{tr: tr, evs: newEventLog(tr)}
	t := &topology{traced: tt}
	ok := false
	defer func() {
		if !ok {
			tt.stop()
		}
	}()
	var err error
	if tt.stateDir, err = h.tempDir("state-traced-"); err != nil {
		return nil, err
	}

	// Leader: journal, broker, fact store, two services, wire listener
	// with replication shipping and the revocation feed (cmd/oasisd).
	tt.leaderReg = obs.NewRegistry()
	tt.broker = event.NewBroker()
	tt.closers = append(tt.closers, tt.broker.Close)
	tt.broker.Tap(func(ev event.Event) {
		if ev.Kind == event.KindRevoked {
			tt.evs.mark(stPublished, ev.Topic)
		}
	})
	if tt.dlog, err = durable.Open(durable.Options{Dir: tt.stateDir, Obs: tt.leaderReg}); err != nil {
		return nil, err
	}
	tt.closers = append(tt.closers, func() { tt.dlog.Close() }) //nolint:errcheck // scratch state
	journal := tracedJournal{Log: tt.dlog, tr: tr, evs: tt.evs}
	db := store.New()
	db.Observe(tt.dlog.FactChanged)
	relations, err := cmdutil.LoadFacts(db, string(pop.factsFile()))
	if err != nil {
		return nil, err
	}
	local := rpc.NewLoopback()
	caller := rpc.NewResilientCaller(local, rpc.ResilientConfig{CallTimeout: 10 * time.Second, Obs: tt.leaderReg})
	leaderSrv := rpc.NewTCPServer()
	leaderSrv.Instrument(tt.leaderReg)
	replica.NewShipper(replica.ShipperConfig{Log: tt.dlog, Node: "leader", Obs: tt.leaderReg}).Register(leaderSrv)
	for _, def := range []struct{ name, text string }{{"login", loginPolicy}, {"files", filesPolicy}} {
		pol, err := policy.Parse(def.text)
		if err != nil {
			return nil, err
		}
		svc, err := core.NewService(core.Config{
			Name: def.name, Policy: pol, Broker: tt.broker, Caller: caller,
			CacheValidations: true, Journal: journal, Obs: tt.leaderReg,
		})
		if err != nil {
			return nil, err
		}
		tt.closers = append(tt.closers, svc.Close)
		if err := svc.InstallKeys(); err != nil {
			return nil, err
		}
		mapping := make(map[string]string)
		for _, rel := range relations {
			svc.Env().RegisterStore(rel, db, rel)
			mapping[rel] = rel
		}
		svc.WatchStore(db, mapping)
		local.Register(def.name, svc.Handler())
		leaderSrv.Register(def.name, tracedHandler(tr, "leader", def.name, svc.Handler()))
	}
	feed := event.NewFeed(tt.broker, 256)
	feed.Instrument(tt.leaderReg)
	tt.closers = append(tt.closers, feed.Close)
	leaderSrv.RegisterStream(event.FeedService, event.FeedMethod,
		func(_ string, _ []byte, send func([]byte) error) (func(), error) { return feed.Subscribe(send) })
	leaderLn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	go leaderSrv.Serve(leaderLn) //nolint:errcheck // ends with Close
	tt.closers = append(tt.closers, leaderSrv.Close)
	t.LeaderAddr = leaderLn.Addr().String()

	// Gateway: pooled directory, resilient caller, coalescing validator,
	// event-fed edge cache, HTTP handler (cmd/oasisgw).
	tt.gwReg = obs.NewRegistry()
	gwDir := rpc.NewDirectoryPool(10*time.Second, 4)
	gwDir.Instrument(tt.gwReg)
	tt.closers = append(tt.closers, gwDir.Close)
	gwDir.Add("login", t.LeaderAddr)
	gwDir.Add("files", t.LeaderAddr)
	resilient := rpc.NewResilientCaller(gwDir, rpc.ResilientConfig{CallTimeout: 10 * time.Second, Obs: tt.gwReg})
	upstream := tracedCaller{tr: tr, next: resilient}
	tt.validator = core.NewRemoteValidator("oasisgw", upstream, 0, tt.gwReg)
	cache := core.NewEdgeCache(tt.validator, sc.CacheMax)
	// The edge cache's feed: gateway.EdgeFeed's subscribe step with the
	// EdgeCache.HandleEvent seam wrapped. No reconnect loop — the leader
	// does not restart during a traced run.
	if err := tt.subscribeFeed(t.LeaderAddr, func(ev event.Event) {
		id := tr.begin("edgecache:handle_event", 0)
		cache.HandleEvent(ev)
		tr.end(id)
	}); err != nil {
		return nil, err
	}
	cache.Attach()
	// The benchmark's own subscription to the same feed, to time a frame
	// from local delivery to arrival over OW2.
	if err := tt.subscribeFeed(t.LeaderAddr, func(ev event.Event) {
		if ev.Kind == event.KindRevoked {
			tt.evs.mark(stFeedFrame, ev.Topic)
		}
	}); err != nil {
		return nil, err
	}
	gw, err := gateway.New(gateway.Config{
		Caller: upstream, Validator: tt.validator, Cache: cache,
		Services: []string{"login", "files"}, Breaker: resilient,
		MaxInflight: 256, Obs: tt.gwReg,
	})
	if err != nil {
		return nil, err
	}
	gwLn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	httpSrv := httpx.NewServer(tracedHTTP(tr, gw.Handler()))
	go httpSrv.Serve(httpx.LimitListener(gwLn, 1024))           //nolint:errcheck // ends with Close
	tt.closers = append(tt.closers, func() { httpSrv.Close() }) //nolint:errcheck // scratch
	t.GatewayURL = "http://" + gwLn.Addr().String()
	ok = true
	return t, nil
}

// subscribeFeed opens an event.Feed stream to addr on its own connection.
func (tt *tracedTopology) subscribeFeed(addr string, on func(event.Event)) error {
	cli, err := rpc.DialTCP(addr, 10*time.Second)
	if err != nil {
		return err
	}
	_, err = cli.Stream(event.FeedService, event.FeedMethod, nil, func(b []byte) {
		if ev, err := event.UnmarshalEvent(b); err == nil {
			on(ev)
		}
	})
	if err != nil {
		cli.Close()
		return err
	}
	tt.closers = append(tt.closers, func() { cli.Close() }) //nolint:errcheck // scratch
	return nil
}

// startFollower attaches a fresh read replica to the (already populated)
// leader, as oasisd -follow does.
func (tt *tracedTopology) startFollower(t *topology) error {
	tt.fReg = obs.NewRegistry()
	fBroker := event.NewBroker()
	tt.closers = append(tt.closers, fBroker.Close)
	fBroker.Tap(func(ev event.Event) {
		if ev.Kind == event.KindRevoked {
			tt.evs.mark(stApplied, ev.Topic)
		}
	})
	fDir := rpc.NewDirectoryPool(10*time.Second, 4)
	tt.closers = append(tt.closers, fDir.Close)
	fDir.Add(replica.Service, t.LeaderAddr)
	fSrv := rpc.NewTCPServer()
	fSrv.Instrument(tt.fReg)
	follower, err := replica.NewFollower(replica.FollowerConfig{
		Leader: t.LeaderAddr,
		Broker: fBroker,
		Store:  store.New(),
		Caller: rpc.NewResilientCaller(fDir, rpc.ResilientConfig{CallTimeout: 10 * time.Second, Obs: tt.fReg}),
		Register: func(name string, h rpc.Handler) {
			fDir.Add(name, t.LeaderAddr)
			fSrv.Register(name, tracedHandler(tt.tr, "follower", name, h))
		},
		Obs: tt.fReg,
	})
	if err != nil {
		return err
	}
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	go fSrv.Serve(ln) //nolint:errcheck // ends with Close
	tt.closers = append(tt.closers, fSrv.Close)
	t.FollowerAddr = ln.Addr().String()
	tt.followRun = time.Now()
	follower.Run()
	tt.closers = append(tt.closers, follower.Close)
	return nil
}

// subscribeTopic registers a handler on the leader's broker for one
// topic, the way a dependent service watches a credential record; it
// marks local delivery.
func (tt *tracedTopology) subscribeTopic(topic string) error {
	sub, err := tt.broker.Subscribe(topic, func(ev event.Event) {
		if ev.Kind == event.KindRevoked {
			tt.evs.mark(stDelivered, ev.Topic)
		}
	})
	if err != nil {
		return err
	}
	tt.closers = append(tt.closers, sub.Cancel)
	return nil
}

// stop closes everything in reverse order of creation.
func (tt *tracedTopology) stop() {
	for i := len(tt.closers) - 1; i >= 0; i-- {
		tt.closers[i]()
	}
	tt.closers = nil
}

// expositions renders the three tiers' registries as /metrics text and
// parses them back, so the traced run derives its counter-based figures
// with the same code as the scrape of the real processes.
func (tt *tracedTopology) expositions() (leader, follower, gw promText, err error) {
	out := make([]promText, 3)
	for i, reg := range []*obs.Registry{tt.leaderReg, tt.fReg, tt.gwReg} {
		var b bytes.Buffer
		if err := reg.WriteText(&b); err != nil {
			return nil, nil, nil, err
		}
		if out[i], err = parseProm(&b); err != nil {
			return nil, nil, nil, fmt.Errorf("parse exposition: %w", err)
		}
	}
	return out[0], out[1], out[2], nil
}
