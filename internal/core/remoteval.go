package core

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/obs"
	"repro/internal/rpc"
)

// RemoteValidator is the client-side validate_batch coalescer exposed to
// front ends that have no local Service — the HTTP edge gateway above
// all. Concurrent validations destined for the same issuer ride one
// validate_batch flight exactly as a service's own callback validations
// do (same in-flight gating and hot-queue re-gather), so an edge tier
// fanning in thousands of HTTP checks costs the issuer ~one wire call per
// herd.
//
// A RemoteValidator answers authoritatively from the issuer every time;
// it deliberately has no verdict cache of its own. Caching at the edge
// without a revocation subscription would re-open the revocation window
// the core's event-driven cache closes. An edge tier that wants caching
// wraps the validator in an EdgeCache, which subscribes to the backend's
// revocation events like a Service does and fails closed to this
// uncached behavior whenever the subscription is down.
type RemoteValidator struct {
	b *batcher

	// Verdict classification counters, for the gateway's /metrics.
	valid   atomic.Uint64
	invalid atomic.Uint64
	errored atomic.Uint64
}

// RemoteValidatorStats is a snapshot of a RemoteValidator's counters.
type RemoteValidatorStats struct {
	// Validations counts verdicts requested (valid + invalid + errors).
	Validations uint64
	// Valid / Invalid split the delivered authoritative verdicts;
	// Errored counts validations that failed without a verdict (issuer
	// unreachable, decode failure).
	Valid   uint64
	Invalid uint64
	Errored uint64
	// BatchesSent counts validate_batch wire calls; BatchedValidations
	// counts the verdicts that rode them.
	BatchesSent        uint64
	BatchedValidations uint64
	// CallbackValidations counts validations that reached an issuer,
	// by item: a single call counts one, a batch counts its size. The
	// approximate wire-call count is therefore
	// CallbackValidations - BatchedValidations + BatchesSent.
	CallbackValidations uint64
}

// NewRemoteValidator builds a validator over the given transport.
// window tunes coalescing like Config.BatchWindow: 0 selects the default
// window, negative disables batching entirely (every validation departs
// as a single binary call). When reg is non-nil the validator registers
// its counters and a batch-size histogram under the given name label.
func NewRemoteValidator(name string, caller rpc.Caller, window time.Duration, reg *obs.Registry) *RemoteValidator {
	v := &RemoteValidator{b: newCallerBatcher(caller, window)}
	if reg != nil {
		label := `{validator="` + name + `"}`
		v.b.batchSize = reg.Histogram("core_validate_batch_size"+label, batchSizeBuckets)
		for _, m := range []struct {
			name string
			load func() uint64
		}{
			{"core_callback_validations_total", v.b.callbackValidations.Load},
			{"core_validate_batches_total", v.b.batchesSent.Load},
			{"core_batched_validations_total", v.b.batchedValidations.Load},
			{"core_verdicts_valid_total", v.valid.Load},
			{"core_verdicts_invalid_total", v.invalid.Load},
			{"core_verdicts_errored_total", v.errored.Load},
		} {
			reg.Func(m.name+label, m.load)
		}
	}
	return v
}

// ValidateRMC asks the RMC's issuer for an authoritative verdict on the
// certificate as presented by principal. nil means valid; an error
// wrapping ErrRevoked is the issuer's authoritative refusal (bad
// signature, revoked or unknown credential record); any other error
// means no verdict was obtained (issuer unreachable).
func (v *RemoteValidator) ValidateRMC(r cert.RMC, principal string) error {
	return v.classify(v.b.do(r.Ref.Issuer, rmcItem(r, principal)))
}

// ValidateAppointment asks the appointment's issuer for an authoritative
// verdict on the certificate. Error classification as in ValidateRMC.
func (v *RemoteValidator) ValidateAppointment(a cert.AppointmentCertificate) error {
	return v.classify(v.b.do(a.Issuer, apptItem(a)))
}

// classify updates the verdict counters and passes the error through.
func (v *RemoteValidator) classify(err error) error {
	switch {
	case err == nil:
		v.valid.Add(1)
	case errors.Is(err, ErrRevoked):
		v.invalid.Add(1)
	default:
		v.errored.Add(1)
	}
	return err
}

// Stats snapshots the validator's counters.
func (v *RemoteValidator) Stats() RemoteValidatorStats {
	valid, invalid, errored := v.valid.Load(), v.invalid.Load(), v.errored.Load()
	return RemoteValidatorStats{
		Validations:         valid + invalid + errored,
		Valid:               valid,
		Invalid:             invalid,
		Errored:             errored,
		BatchesSent:         v.b.batchesSent.Load(),
		BatchedValidations:  v.b.batchedValidations.Load(),
		CallbackValidations: v.b.callbackValidations.Load(),
	}
}
