package core

import (
	"fmt"

	"repro/internal/obs"
)

// serviceObs bundles a service's observability handles. Handles are
// resolved once in NewService; with no registry/tracer configured every
// field is nil and each instrumentation site costs one branch, keeping
// the hot paths at their uninstrumented speed (the <5% overhead budget is
// measured by the obs=off/obs=on pair of BenchmarkFig2InvokeCachedParallel
// and by the bench tracer's trace.overhead_ratio).
//
// Counting and tracing are deliberately split by path temperature: the
// per-request counters (validations, cache hits, invocations) already
// exist as lock-free statCounters and are exported as read-at-scrape
// function metrics with zero hot-path cost, while trace events and
// latency histograms attach only to state-changing or issuer-facing
// operations — activation, callback validation, degraded acceptance,
// denial, revocation — whose base cost dwarfs the instrumentation.
type serviceObs struct {
	tracer *obs.Tracer

	// activateNs is the end-to-end latency of successful role activations.
	activateNs *obs.Histogram
	// callbackNs is the latency of callback validations to issuers.
	callbackNs *obs.Histogram
	// cascadeHopNs is the per-hop propagation latency of revocation
	// cascades (publish at depth d to deactivation at depth d+1).
	cascadeHopNs *obs.Histogram
	// cascadeDepth distributes the hop distance from each deactivation
	// to its cascade root (0 = root revocations).
	cascadeDepth *obs.Histogram
	// batchSize distributes the item count of each callback-validation
	// departure (1 = un-coalesced single call).
	batchSize *obs.Histogram
}

// cascadeDepthBuckets sizes the depth histogram: collapse trees deeper
// than 64 hops land in +Inf.
var cascadeDepthBuckets = []int64{0, 1, 2, 4, 8, 16, 32, 64}

// batchSizeBuckets sizes the validation batch histogram; batches larger
// than 256 land in +Inf.
var batchSizeBuckets = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// newServiceObs wires a service into the registry and tracer (both may be
// nil). Every per-service series carries a service label.
func newServiceObs(s *Service, name string, reg *obs.Registry, tracer *obs.Tracer) serviceObs {
	o := serviceObs{tracer: tracer}
	if reg == nil {
		return o
	}
	stats := &s.stats
	label := fmt.Sprintf("{service=%q}", name)
	for _, m := range []struct {
		name string
		fn   func() uint64
	}{
		{"core_activations_total", stats.activations.Load},
		{"core_activations_denied_total", stats.activationsDenied.Load},
		{"core_invocations_total", stats.invocations.Load},
		{"core_invocations_denied_total", stats.invocationsDenied.Load},
		{"core_local_validations_total", stats.localValidations.Load},
		{"core_callback_validations_total", stats.callbackValidations.Load},
		{"core_cache_hits_total", stats.cacheHits.Load},
		{"core_cache_misses_total", stats.cacheMisses.Load},
		{"core_cache_evictions_total", stats.cacheEvictions.Load},
		{"core_degraded_hits_total", stats.degradedHits.Load},
		{"core_revocations_total", stats.revocations.Load},
		{"core_validate_batches_total", stats.batchesSent.Load},
		{"core_batched_validations_total", stats.batchedValidations.Load},
	} {
		reg.Func(m.name+label, m.fn)
	}
	// Cache-pressure and resident-state gauges: the ECR entry population
	// (against its CacheMaxEntries bound) and the live credential-record
	// count, both O(1) reads at scrape time.
	reg.Func("core_ecr_cache_entries"+label, func() uint64 { return uint64(s.vcache.count.Load()) })
	reg.Func("core_resident_crs"+label, func() uint64 { return uint64(s.crs.residents()) })
	o.activateNs = reg.Histogram("core_activate_ns"+label, nil)
	o.callbackNs = reg.Histogram("core_callback_validate_ns"+label, nil)
	o.cascadeHopNs = reg.Histogram("core_revoke_hop_ns"+label, nil)
	o.cascadeDepth = reg.Histogram("core_revoke_depth"+label, cascadeDepthBuckets)
	o.batchSize = reg.Histogram("core_validate_batch_size"+label, batchSizeBuckets)
	return o
}

// trace records ev if tracing is enabled; the Service field is filled in
// by the caller.
func (o *serviceObs) trace(ev obs.TraceEvent) {
	o.tracer.Record(ev)
}
