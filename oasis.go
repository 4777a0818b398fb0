// Package oasis is the public API of this reproduction of "Access Control
// and Trust in the Use of Widely Distributed Services" (Bacon, Moody & Yao,
// Middleware 2001): the OASIS role-based access control architecture.
//
// OASIS in one paragraph: services define their own parametrised roles and
// publish Horn-clause policy for activating them and for invoking methods.
// A principal starts a session by activating an initial role (e.g. a login
// role), collects role membership certificates (RMCs) as it activates
// further roles, and presents them as credentials. Conditions marked in a
// rule's membership clause are monitored through an event infrastructure:
// the moment one fails, the role is deactivated and every dependent role
// collapses. Long-lived credentials are appointment certificates, issued by
// principals active in appointer roles; cross-domain use is governed by
// service level agreements with callback validation; audit certificates
// record interaction histories for trust decisions between strangers.
//
// Quickstart:
//
//	broker := oasis.NewBroker()
//	defer broker.Close()
//	bus := oasis.NewBus()
//
//	login, _ := oasis.NewService(oasis.Config{
//	    Name:   "login",
//	    Policy: oasis.MustParsePolicy(`login.user <- env password_ok.`),
//	    Broker: broker, Caller: bus,
//	})
//	bus.Register("login", login.Handler())
//	login.Env().Register("password_ok", ...)
//
//	session, _ := oasis.NewSession(nil)
//	rmc, err := login.Activate(session.PrincipalID(),
//	    oasis.MustRole(oasis.MustRoleName("login", "user", 0)), oasis.Presented{})
//
// See the examples directory for complete scenarios from the paper:
// quickstart, the cross-domain electronic health record session (Fig. 3),
// the visiting doctor (Sect. 5), the anonymous clinic (Sect. 5), and the
// web of trust between strangers (Sect. 6).
package oasis

import (
	"repro/internal/audit"
	"repro/internal/baseline"
	"repro/internal/cert"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/event"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/seal"
	"repro/internal/sign"
	"repro/internal/store"
	"repro/internal/trust"
)

// Naming and terms (parametrised roles, Sect. 2).
type (
	// Term is a policy-language term: variable, atom, string or integer.
	Term = names.Term
	// RoleName is a service-qualified role name with its arity.
	RoleName = names.RoleName
	// Role is a role name applied to parameter terms.
	Role = names.Role
	// Substitution maps policy variables to terms.
	Substitution = names.Substitution
	// TermKind discriminates term variants.
	TermKind = names.TermKind
)

// Term kinds.
const (
	KindVar    = names.KindVar
	KindAtom   = names.KindAtom
	KindString = names.KindString
	KindInt    = names.KindInt
)

// Term constructors.
var (
	// Var returns a variable term (upper-case by convention).
	Var = names.Var
	// Atom returns a symbolic constant term.
	Atom = names.Atom
	// Str returns a string constant term.
	Str = names.Str
	// Int returns an integer constant term.
	Int = names.Int
	// NewRoleName validates and builds a role name.
	NewRoleName = names.NewRoleName
	// MustRoleName panics on invalid input; for fixtures.
	MustRoleName = names.MustRoleName
	// NewRole pairs a role name with parameters, enforcing arity.
	NewRole = names.NewRole
	// MustRole panics on invalid input; for fixtures.
	MustRole = names.MustRole
	// NewSubstitution returns an empty substitution.
	NewSubstitution = names.NewSubstitution
)

// Policy (role activation rules, authorization rules, Sect. 2).
type (
	// Policy is a parsed policy document.
	Policy = policy.Policy
	// Rule is a role activation rule with its membership clause.
	Rule = policy.Rule
	// AuthRule is a method authorization rule.
	AuthRule = policy.AuthRule
	// Registry holds environmental predicate implementations.
	Registry = policy.Registry
	// Predicate evaluates one environmental constraint.
	Predicate = policy.Predicate
	// PolicyIssue is a finding from the static consistency checker.
	PolicyIssue = policy.Issue
	// PolicyChecker checks referential consistency across the policies
	// of a set of services.
	PolicyChecker = policy.Checker
)

var (
	// ParsePolicy parses policy text.
	ParsePolicy = policy.Parse
	// MustParsePolicy panics on bad policy text; for fixtures.
	MustParsePolicy = policy.MustParse
	// NewRegistry creates a predicate registry with comparison builtins.
	NewRegistry = policy.NewRegistry
	// NewPolicyChecker creates an empty consistency checker; Federation
	// exposes CheckConsistency over everything it registers.
	NewPolicyChecker = policy.NewChecker
	// PolicyErrors filters checker findings to severity "error".
	PolicyErrors = policy.Errors
)

// Certificates (Fig. 4, Sect. 4).
type (
	// RMC is a role membership certificate.
	RMC = cert.RMC
	// CRR is a credential record reference locating the issuer.
	CRR = cert.CRR
	// AppointmentCertificate is a long-lived credential (Sect. 2).
	AppointmentCertificate = cert.AppointmentCertificate
)

// Engine (Figs. 1, 2, 5; Sects. 2-4).
type (
	// Service is an OASIS-secured service.
	Service = core.Service
	// Config configures a Service.
	Config = core.Config
	// Stats counts service activity.
	Stats = core.Stats
	// Session is a principal's session state and certificate wallet.
	Session = core.Session
	// Presented is a credential bundle submitted with a request.
	Presented = core.Presented
	// AppointmentRequest describes an appointment to issue.
	AppointmentRequest = core.AppointmentRequest
	// InvokeRecord describes a successful authorized invocation.
	InvokeRecord = core.InvokeRecord
	// MethodImpl is application logic behind an access-controlled
	// method.
	MethodImpl = core.MethodImpl
	// Client invokes services through an rpc transport.
	Client = core.Client
)

var (
	// NewService constructs a service.
	NewService = core.NewService
	// NewSession creates a session with a fresh key pair.
	NewSession = core.NewSession
	// NewClient wraps a transport for remote activation/invocation.
	NewClient = core.NewClient
	// WatchLiveness guards a foreign certificate with a heartbeat
	// monitor so issuer silence fails safe.
	WatchLiveness = core.WatchLiveness
)

// Engine errors, re-exported for errors.Is matching.
var (
	ErrActivationDenied  = core.ErrActivationDenied
	ErrInvocationDenied  = core.ErrInvocationDenied
	ErrInvalidCredential = core.ErrInvalidCredential
	ErrUnknownRole       = core.ErrUnknownRole
	ErrRevoked           = core.ErrRevoked
	ErrAppointmentDenied = core.ErrAppointmentDenied
)

// Event infrastructure (Sect. 4, Fig. 5).
type (
	// Broker is the active-middleware event broker.
	Broker = event.Broker
	// Event is a notification on a channel.
	Event = event.Event
	// HeartbeatMonitor turns issuer silence into fail-safe revocation.
	HeartbeatMonitor = event.HeartbeatMonitor
	// EventRelay bridges brokers across processes so revocation events
	// reach services on other nodes.
	EventRelay = event.Relay
)

var (
	// NewBroker creates an event broker.
	NewBroker = event.NewBroker
	// NewHeartbeatMonitor creates a heartbeat monitor.
	NewHeartbeatMonitor = event.NewHeartbeatMonitor
	// NewEventRelay attaches a relay to a broker under a node name.
	NewEventRelay = event.NewRelay
	// MarshalEvent / UnmarshalEvent are the relay wire codec.
	MarshalEvent   = event.MarshalEvent
	UnmarshalEvent = event.UnmarshalEvent
)

// Transports.
type (
	// Bus is the in-process transport with fault injection.
	Bus = rpc.Loopback
	// TCPServer serves service handlers over TCP.
	TCPServer = rpc.TCPServer
	// TCPClient calls services over TCP.
	TCPClient = rpc.TCPClient
	// Directory routes calls to services spread over several TCP
	// endpoints (the cmd/oasisd deployment shape).
	Directory = rpc.Directory
)

var (
	// NewBus creates an in-process transport.
	NewBus = rpc.NewLoopback
	// NewTCPServer creates a TCP transport server.
	NewTCPServer = rpc.NewTCPServer
	// DialTCP connects a TCP transport client.
	DialTCP = rpc.DialTCP
	// NewDirectory creates a multi-endpoint service directory.
	NewDirectory = rpc.NewDirectory
)

// Encrypted communication (Sect. 4.1).
type (
	// SealIdentity is a long-lived X25519 identity for sealed
	// communication.
	SealIdentity = seal.Identity
	// SealedEnvelope is one sealed message.
	SealedEnvelope = seal.Envelope
	// SealDirectory maps service names to sealing public keys.
	SealDirectory = seal.Directory
	// SealedCaller seals request bodies end to end over any transport.
	SealedCaller = seal.Caller
)

var (
	// NewSealIdentity generates a sealing identity.
	NewSealIdentity = seal.NewIdentity
	// NewSealDirectory creates an empty key directory.
	NewSealDirectory = seal.NewDirectory
	// NewSealedCaller wraps a transport with end-to-end sealing.
	NewSealedCaller = seal.NewCaller
	// SealedHandler wraps a service handler to accept sealed requests
	// and seal responses back to the caller.
	SealedHandler = seal.Handler
)

// Facts and time.
type (
	// FactStore is the embedded relation store for environmental
	// predicates.
	FactStore = store.Store
	// Clock abstracts time for constraints and expiry.
	Clock = clock.Clock
	// SimClock is a manually advanced clock for tests and experiments.
	SimClock = clock.Simulated
)

var (
	// NewFactStore creates an empty fact store.
	NewFactStore = store.New
	// NewSimClock creates a simulated clock.
	NewSimClock = clock.NewSimulated
)

// RealClock returns the wall-clock time source.
func RealClock() Clock { return clock.Real{} }

// Multi-domain federation (Sects. 3, 5).
type (
	// Federation registers domains, services and agreements.
	Federation = domain.Federation
	// SLA is a service level agreement.
	SLA = domain.SLA
	// ApptRef names an appointment credential type in an SLA.
	ApptRef = domain.ApptRef
	// GroupMembership is the negotiated group-membership helper.
	GroupMembership = domain.GroupMembership
	// AnonymousSession is a pseudonymous session with an anonymised
	// credential.
	AnonymousSession = domain.AnonymousSession
)

var (
	// NewFederation creates an empty federation.
	NewFederation = domain.NewFederation
	// NewAnonymousSession creates a pseudonymous session (Sect. 5).
	NewAnonymousSession = domain.NewAnonymousSession
	// ErrNoSLA reports a credential with no covering agreement.
	ErrNoSLA = domain.ErrNoSLA
)

// Audit and trust (Sect. 6).
type (
	// AuditAuthority issues and validates audit certificates.
	AuditAuthority = audit.Authority
	// AuditCertificate records one certified interaction.
	AuditCertificate = audit.Certificate
	// AuditLedger accumulates parties' interaction histories.
	AuditLedger = audit.Ledger
	// AuditOutcome classifies how an interaction ended.
	AuditOutcome = audit.Outcome
	// TrustPolicy sets a relying party's risk appetite.
	TrustPolicy = trust.Policy
	// TrustEngine evaluates histories under a policy.
	TrustEngine = trust.Engine
	// TrustDecision is the outcome of a trust evaluation.
	TrustDecision = trust.Decision
)

var (
	// NewAuditAuthority creates an audit authority.
	NewAuditAuthority = audit.NewAuthority
	// NewAuditLedger creates an empty ledger.
	NewAuditLedger = audit.NewLedger
	// AttachAudit wires an authority and ledger to a service.
	AttachAudit = audit.AttachTo
	// NewTrustEngine builds a trust engine.
	NewTrustEngine = trust.NewEngine
	// DefaultTrustPolicy is a reasonable starting policy.
	DefaultTrustPolicy = trust.DefaultPolicy
)

// Audit outcomes.
const (
	OutcomeFulfilled      = audit.OutcomeFulfilled
	OutcomeClientDefault  = audit.OutcomeClientDefault
	OutcomeServiceDefault = audit.OutcomeServiceDefault
)

// Session keys and challenge-response (Sect. 4.1).
type (
	// SessionKey is an Ed25519 session key pair.
	SessionKey = sign.SessionKey
	// Challenge is an ISO/9798-style challenge.
	Challenge = sign.Challenge
	// ChallengeResponse is the client's proof of key possession.
	ChallengeResponse = sign.Response
	// Challenger issues and checks challenges service-side.
	Challenger = sign.Challenger
)

// Baselines for comparison (Sect. 1; experiment E9).
type (
	// ACLBaseline is the per-object access-control-list comparator.
	ACLBaseline = baseline.ACLService
	// RBAC0Baseline is the unparametrised-RBAC comparator.
	RBAC0Baseline = baseline.RBAC0Service
	// DelegationBaseline is the delegation-based RBAC comparator.
	DelegationBaseline = baseline.DelegationService
	// PollingBaseline is the polling-revocation comparator.
	PollingBaseline = baseline.PollingRevoker
)

var (
	// NewACLBaseline creates an empty ACL store.
	NewACLBaseline = baseline.NewACLService
	// NewRBAC0Baseline creates an empty RBAC0 store.
	NewRBAC0Baseline = baseline.NewRBAC0Service
	// NewDelegationBaseline creates an empty delegation store.
	NewDelegationBaseline = baseline.NewDelegationService
	// NewPollingBaseline creates a polling revoker.
	NewPollingBaseline = baseline.NewPollingRevoker
)
