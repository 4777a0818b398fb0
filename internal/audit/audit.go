// Package audit implements the interaction certification proposed in
// Sect. 6 of the paper: after an interaction subject to contract, a
// certificate issuing and validation (CIV) service "creates an audit
// certificate which it issues to both parties and validates on request".
// Audit certificates embody a party's interaction history and form the
// evidence base for the web of trust (see internal/trust).
package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sign"
)

// Errors returned by audit validation.
var (
	// ErrUnknownAudit is returned when validating a certificate whose
	// serial the authority has no record of.
	ErrUnknownAudit = errors.New("unknown audit certificate")
	// ErrRepudiated is returned by a rogue authority that disowns
	// certificates it legitimately issued (a risk the paper calls out).
	ErrRepudiated = errors.New("authority repudiates this certificate")
)

// Outcome records how an interaction ended, as certified by the CIV.
type Outcome int

// Interaction outcomes.
const (
	// OutcomeFulfilled: both sides met the contract.
	OutcomeFulfilled Outcome = iota + 1
	// OutcomeClientDefault: the client exploited resources in unintended
	// ways or failed to pay the agreed charge.
	OutcomeClientDefault
	// OutcomeServiceDefault: the service breached confidentiality or
	// gave poor or partial fulfilment.
	OutcomeServiceDefault
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeFulfilled:
		return "fulfilled"
	case OutcomeClientDefault:
		return "client-default"
	case OutcomeServiceDefault:
		return "service-default"
	default:
		return "unknown"
	}
}

// Certificate is a signed record of one interaction between a client
// principal and a service, issued by the authority of the service's domain.
// It contains enough information for the issuing authority to be located
// (Authority) and the record checked (Serial), as Sect. 6 requires.
type Certificate struct {
	Authority string         `json:"authority"`
	Serial    uint64         `json:"serial"`
	Client    string         `json:"client"`
	Service   string         `json:"service"`
	Method    string         `json:"method"`
	Outcome   Outcome        `json:"outcome"`
	At        time.Time      `json:"at"`
	KeyID     uint32         `json:"keyId"`
	Sig       sign.Signature `json:"sig"`
}

func (c Certificate) protectedFields() [][]byte {
	var nums [24]byte
	binary.BigEndian.PutUint64(nums[:8], c.Serial)
	binary.BigEndian.PutUint64(nums[8:16], uint64(c.At.UnixNano()))
	binary.BigEndian.PutUint32(nums[16:20], uint32(c.Outcome))
	binary.BigEndian.PutUint32(nums[20:], c.KeyID)
	return [][]byte{
		[]byte(c.Authority), nums[:], []byte(c.Client),
		[]byte(c.Service), []byte(c.Method),
	}
}

// Authority is a domain's audit-certificate issuer (an extension of the
// domain's CIV service, as Sect. 6 suggests). A rogue authority can be
// configured to repudiate, modelling the paper's caveat.
type Authority struct {
	name string
	ring *sign.KeyRing
	clk  clock.Clock

	mu         sync.Mutex
	nextSerial uint64
	issued     map[uint64]Certificate
	repudiate  bool
}

// NewAuthority creates an audit authority named name.
func NewAuthority(name string, clk clock.Clock) (*Authority, error) {
	ring, err := sign.NewKeyRing(2, nil)
	if err != nil {
		return nil, fmt.Errorf("authority %s: %w", name, err)
	}
	if clk == nil {
		clk = clock.Real{}
	}
	return &Authority{
		name:   name,
		ring:   ring,
		clk:    clk,
		issued: make(map[uint64]Certificate),
	}, nil
}

// Name returns the authority's name (its locator).
func (a *Authority) Name() string { return a.name }

// Issue certifies one interaction and records it for later validation.
// Copies go to both parties (the caller distributes them).
func (a *Authority) Issue(client, service, method string, outcome Outcome) Certificate {
	a.mu.Lock()
	a.nextSerial++
	serial := a.nextSerial
	a.mu.Unlock()

	c := Certificate{
		Authority: a.name,
		Serial:    serial,
		Client:    client,
		Service:   service,
		Method:    method,
		Outcome:   outcome,
		At:        a.clk.Now(),
	}
	c.KeyID = a.ring.CurrentKeyID()
	for {
		sig, used := a.ring.Sign(c.Client, c.protectedFields()...)
		if used == c.KeyID {
			c.Sig = sig
			break
		}
		c.KeyID = used
	}
	a.mu.Lock()
	a.issued[serial] = c
	a.mu.Unlock()
	return c
}

// Validate checks a certificate against the authority's records and
// signature, as a relying party does by callback before trusting it.
func (a *Authority) Validate(c Certificate) error {
	a.mu.Lock()
	repudiate := a.repudiate
	rec, ok := a.issued[c.Serial]
	a.mu.Unlock()
	if repudiate {
		return ErrRepudiated
	}
	if !ok {
		return fmt.Errorf("%w: serial %d", ErrUnknownAudit, c.Serial)
	}
	if rec.Client != c.Client || rec.Service != c.Service || rec.Outcome != c.Outcome {
		return fmt.Errorf("%w: fields do not match the issued record", ErrUnknownAudit)
	}
	return a.ring.Verify(c.KeyID, c.Sig, c.Client, c.protectedFields()...)
}

// SetRepudiating switches the authority into the rogue mode of Sect. 6:
// it disowns everything it issued.
func (a *Authority) SetRepudiating(r bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.repudiate = r
}

// Ledger accumulates the audit certificates held by parties (each party
// keeps its own copies; the ledger is the test/simulation view of all of
// them).
type Ledger struct {
	mu     sync.Mutex
	byCert map[string][]Certificate // party -> certificates naming it
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{byCert: make(map[string][]Certificate)}
}

// Record files a certificate under both parties.
func (l *Ledger) Record(c Certificate) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byCert[c.Client] = append(l.byCert[c.Client], c)
	l.byCert[c.Service] = append(l.byCert[c.Service], c)
}

// HistoryOf returns the certificates naming a party.
func (l *Ledger) HistoryOf(party string) []Certificate {
	l.mu.Lock()
	defer l.mu.Unlock()
	src := l.byCert[party]
	out := make([]Certificate, len(src))
	copy(out, src)
	return out
}

// AttachTo wires an authority and ledger to a service: every authorized
// invocation is certified with the outcome chosen by outcomeOf (pass nil
// to certify everything fulfilled).
func AttachTo(svc *core.Service, a *Authority, l *Ledger, outcomeOf func(core.InvokeRecord) Outcome) {
	svc.Observe(func(rec core.InvokeRecord) {
		outcome := OutcomeFulfilled
		if outcomeOf != nil {
			outcome = outcomeOf(rec)
		}
		c := a.Issue(rec.Principal, rec.Service, rec.Method, outcome)
		l.Record(c)
	})
}
