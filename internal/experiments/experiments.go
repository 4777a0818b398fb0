// Package experiments implements the reproduction harness for every figure
// and scenario in the paper's evaluation (see DESIGN.md's experiment
// index). Each experiment builds the workload with the real OASIS engine,
// runs it, and returns measured rows; cmd/benchtab prints them as tables
// and bench_test.go wraps the same code in testing.B benchmarks.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/cert"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rpc"
)

// World bundles the shared infrastructure for one experiment run.
type World struct {
	Broker *event.Broker
	Bus    *rpc.Loopback
	Clock  *clock.Simulated
	// Obs and Trace, when set, are threaded into every service the world
	// creates — the observability-overhead benchmark runs the same
	// workload with and without them.
	Obs   *obs.Registry
	Trace *obs.Tracer
	// Journal, when set, is threaded into every service the world creates
	// — the journaled write-path benchmark runs against a real durable log.
	Journal core.Journal
	// OnClose hooks run when the world closes (after the broker), letting
	// experiments attach per-world resources like a journal directory.
	OnClose []func()
}

// NewWorld creates a fresh world with a simulated clock.
func NewWorld() *World {
	return &World{
		Broker: event.NewBroker(),
		Bus:    rpc.NewLoopback(),
		Clock:  clock.NewSimulated(time.Date(2001, 11, 12, 9, 0, 0, 0, time.UTC)),
	}
}

// Close tears the world down.
func (w *World) Close() {
	w.Broker.Close()
	for _, f := range w.OnClose {
		f()
	}
}

// Service builds a service in this world and registers its handler.
func (w *World) Service(name, policyText string, cache bool) (*core.Service, error) {
	svc, err := core.NewService(core.Config{
		Name:             name,
		Policy:           policy.MustParse(policyText),
		Broker:           w.Broker,
		Caller:           w.Bus,
		Clock:            w.Clock,
		CacheValidations: cache,
		Obs:              w.Obs,
		Trace:            w.Trace,
		Journal:          w.Journal,
	})
	if err != nil {
		return nil, err
	}
	w.Bus.Register(name, svc.Handler())
	return svc, nil
}

// AlwaysTrue registers an env predicate that always succeeds.
func AlwaysTrue(svc *core.Service, name string) {
	svc.Env().Register(name, func(args []names.Term, s names.Substitution) []names.Substitution {
		return []names.Substitution{s.Clone()}
	})
}

// Role is a fixture helper.
func Role(service, name string, params ...names.Term) names.Role {
	return names.MustRole(names.MustRoleName(service, name, len(params)), params...)
}

// NewSession creates a session or panics (experiment setup only).
func NewSession() *core.Session {
	s, err := core.NewSession(nil)
	if err != nil {
		panic(err)
	}
	return s
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1: role dependency through prerequisite roles.
// ---------------------------------------------------------------------------

// Fig1Row is one measurement of a prerequisite chain activation.
type Fig1Row struct {
	Depth        int
	Fanout       int
	CertsIssued  int
	Validations  uint64 // callback validations performed across services
	ActivateTime time.Duration
}

// RunFig1 builds a chain of services s0..s(depth-1); each service's role
// requires `fanout` RMCs from the previous layer (fanout==1 is the pure
// chain of Fig. 1). It measures the wall time to build the full session
// tree and the certificates issued.
func RunFig1(depth, fanout int) (Fig1Row, error) {
	w := NewWorld()
	defer w.Close()

	services := make([]*core.Service, depth)
	for layer := 0; layer < depth; layer++ {
		name := fmt.Sprintf("s%d", layer)
		var pol string
		if layer == 0 {
			pol = fmt.Sprintf("%s.r <- env ok.", name)
		} else {
			// Prerequisites: `fanout` roles from the previous layer
			// (the same role presented via distinct certificates
			// counts once, so we model fanout by requiring the single
			// previous role; fanout>1 widens each layer instead).
			pol = fmt.Sprintf("%s.r <- s%d.r keep [1].", name, layer-1)
		}
		svc, err := w.Service(name, pol, false)
		if err != nil {
			return Fig1Row{}, err
		}
		if layer == 0 {
			AlwaysTrue(svc, "ok")
		}
		services[layer] = svc
	}

	row := Fig1Row{Depth: depth, Fanout: fanout}
	start := time.Now()
	certs := 0
	for f := 0; f < fanout; f++ {
		sess := NewSession()
		for layer := 0; layer < depth; layer++ {
			rmc, err := services[layer].Activate(sess.PrincipalID(),
				Role(fmt.Sprintf("s%d", layer), "r"), sess.Credentials())
			if err != nil {
				return Fig1Row{}, fmt.Errorf("layer %d: %w", layer, err)
			}
			sess.AddRMC(rmc)
			certs++
		}
	}
	row.ActivateTime = time.Since(start)
	row.CertsIssued = certs
	row.Validations = w.Bus.Calls()
	return row, nil
}

// ---------------------------------------------------------------------------
// E2 — Fig. 2: role entry and service use, callback vs cached validation.
// ---------------------------------------------------------------------------

// Fig2Row measures the two paths of Fig. 2 under a validation mode.
type Fig2Row struct {
	Mode        string // "callback" or "cached"
	Invocations int
	Callbacks   uint64
	CacheHits   uint64
	EntryTime   time.Duration // paths 1-2 (one role entry)
	InvokeTime  time.Duration // paths 3-4 (all invocations)
	PerInvoke   time.Duration
}

// RunFig2 performs one role entry and n invocations presenting a foreign
// RMC, with or without the ECR validation cache.
func RunFig2(n int, cached bool) (Fig2Row, error) {
	w := NewWorld()
	defer w.Close()
	login, err := w.Service("login", `login.user <- env ok.`, false)
	if err != nil {
		return Fig2Row{}, err
	}
	AlwaysTrue(login, "ok")
	guard, err := w.Service("guard", `
guard.inside <- login.user keep [1].
auth enter <- login.user.
`, cached)
	if err != nil {
		return Fig2Row{}, err
	}

	sess := NewSession()
	before := w.Bus.Calls() // count every callback across entry and use
	start := time.Now()
	rmc, err := login.Activate(sess.PrincipalID(), Role("login", "user"), core.Presented{})
	if err != nil {
		return Fig2Row{}, err
	}
	sess.AddRMC(rmc)
	if _, err := guard.Activate(sess.PrincipalID(), Role("guard", "inside"), sess.Credentials()); err != nil {
		return Fig2Row{}, err
	}
	entry := time.Since(start)

	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := guard.Invoke(sess.PrincipalID(), "enter", nil, sess.Credentials()); err != nil {
			return Fig2Row{}, err
		}
	}
	invoke := time.Since(start)

	mode := "callback"
	if cached {
		mode = "cached"
	}
	stats := guard.Stats()
	return Fig2Row{
		Mode:        mode,
		Invocations: n,
		Callbacks:   w.Bus.Calls() - before,
		CacheHits:   stats.CacheHits,
		EntryTime:   entry,
		InvokeTime:  invoke,
		PerInvoke:   invoke / time.Duration(n),
	}, nil
}

// ---------------------------------------------------------------------------
// E5 — Fig. 5: active security via the event infrastructure.
// ---------------------------------------------------------------------------

// Fig5Row measures a revocation cascade over a dependency tree.
type Fig5Row struct {
	Roles           int // total dependent roles
	Shape           string
	Target          string        // "root" or "leaf"
	RevokeLatency   time.Duration // from Deactivate to full collapse
	EventsDelivered uint64
	AllCollapsed    bool // target's dependent set collapsed, nothing else
}

// RunFig5 revokes the root of the dependency tree; see RunFig5Target.
func RunFig5(n int, shape string) (Fig5Row, error) {
	return RunFig5Target(n, shape, "root")
}

// RunFig5Target builds a dependency tree of n roles, revokes either the
// root (collapsing everything) or a leaf (collapsing only itself), and
// measures the cascade. The contrast shows that revocation cost follows
// the dependent subtree, not the session size.
func RunFig5Target(n int, shape, target string) (Fig5Row, error) {
	w := NewWorld()
	defer w.Close()

	login, err := w.Service("login", `login.user <- env ok.`, false)
	if err != nil {
		return Fig5Row{}, err
	}
	AlwaysTrue(login, "ok")
	sess := NewSession()
	rootRMC, err := login.Activate(sess.PrincipalID(), Role("login", "user"), core.Presented{})
	if err != nil {
		return Fig5Row{}, err
	}
	sess.AddRMC(rootRMC)

	type node struct {
		svc    *core.Service
		serial uint64
	}
	var nodes []node
	switch shape {
	case "chain":
		prevService := "login"
		prevWallet := sess.Credentials()
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("c%d", i)
			svc, err := w.Service(name, fmt.Sprintf("%s.r <- %s.%s keep [1].",
				name, prevService, roleNameOf(prevService)), false)
			if err != nil {
				return Fig5Row{}, err
			}
			rmc, err := svc.Activate(sess.PrincipalID(), Role(name, "r"), prevWallet)
			if err != nil {
				return Fig5Row{}, err
			}
			nodes = append(nodes, node{svc, rmc.Ref.Serial})
			prevService = name
			prevWallet = core.Presented{RMCs: []cert.RMC{rmc}}
		}
	case "star":
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("c%d", i)
			svc, err := w.Service(name, fmt.Sprintf("%s.r <- login.user keep [1].", name), false)
			if err != nil {
				return Fig5Row{}, err
			}
			rmc, err := svc.Activate(sess.PrincipalID(), Role(name, "r"), sess.Credentials())
			if err != nil {
				return Fig5Row{}, err
			}
			nodes = append(nodes, node{svc, rmc.Ref.Serial})
		}
	default:
		return Fig5Row{}, fmt.Errorf("unknown shape %q", shape)
	}

	_, deliveredBefore := w.Broker.Stats()
	start := time.Now()
	switch target {
	case "root":
		login.Deactivate(rootRMC.Ref.Serial, "logout")
	case "leaf":
		leaf := nodes[len(nodes)-1]
		leaf.svc.Deactivate(leaf.serial, "leaf revoked")
	default:
		return Fig5Row{}, fmt.Errorf("unknown target %q", target)
	}
	w.Broker.Quiesce()
	latency := time.Since(start)
	_, deliveredAfter := w.Broker.Stats()

	ok := true
	switch target {
	case "root":
		// Everything must be gone.
		for _, nd := range nodes {
			if valid, _ := nd.svc.CRStatus(nd.serial); valid {
				ok = false
			}
		}
	case "leaf":
		// Only the leaf is gone; every other role (and the root)
		// survives.
		for i, nd := range nodes {
			valid, _ := nd.svc.CRStatus(nd.serial)
			if i == len(nodes)-1 && valid {
				ok = false
			}
			if i < len(nodes)-1 && !valid {
				ok = false
			}
		}
		if valid, _ := login.CRStatus(rootRMC.Ref.Serial); !valid {
			ok = false
		}
	}
	return Fig5Row{
		Roles:           n,
		Shape:           shape,
		Target:          target,
		RevokeLatency:   latency,
		EventsDelivered: deliveredAfter - deliveredBefore,
		AllCollapsed:    ok,
	}, nil
}

func roleNameOf(service string) string {
	if service == "login" {
		return "user"
	}
	return "r"
}
