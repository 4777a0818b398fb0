package main

import (
	"math"
	"strings"
	"testing"
)

const gwExposition = `# comment
gw_requests_total{endpoint="validate",code="200"} 900
gw_requests_total{endpoint="validate",code="503"} 100
gw_requests_total{endpoint="revoke",code="200"} 50
gw_admission_dropped_total{reason="overload"} 100
gw_admission_dropped_total{reason="ratelimit"} 5
gw_cache_hits_total 600
gw_cache_misses_total 300
gw_cache_bypassed_total 100
core_callback_validations_total{validator="oasisgw"} 400
core_validate_batches_total{validator="oasisgw"} 50
core_batched_validations_total{validator="oasisgw"} 200
malformed line without a number
`

const leaderExposition = `seq_batch_size_sum{service="login"} 30
seq_batch_size_count{service="login"} 20
seq_batch_size_sum{service="files"} 30
seq_batch_size_count{service="files"} 20
durable_append_bytes_total 10100
durable_append_records_total 100
event_feed_gaps_total 0
`

func TestParsePromAndLayerCounters(t *testing.T) {
	gw, err := parseProm(strings.NewReader(gwExposition))
	if err != nil {
		t.Fatal(err)
	}
	if got := gw[`gw_requests_total{endpoint="validate",code="200"}`]; got != 900 {
		t.Errorf("labelled sample = %v", got)
	}
	if got := gw.sum("gw_requests_total"); got != 1050 {
		t.Errorf("sum over label sets = %v", got)
	}
	leader, err := parseProm(strings.NewReader(leaderExposition))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	layerCounters(leader, promText{"repl_records_applied_total": 7}, gw, out)
	for name, want := range map[string]float64{
		"core.edgecache_hit_ratio":            0.6,
		"gateway.shed_ratio":                  0.1,
		"gateway.upstream_calls_per_validate": 0.25, // (400 - 200 + 50) wire calls over 1000 validates
		"core.batch_mean_size":                4,
		"seq.batch_mean_size":                 1.5,
		"durable.bytes_per_record":            101,
		"event.feed_gaps":                     0,
		"replica.records_applied":             7,
	} {
		if got, ok := out[name]; !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	// An idle tier divides by zero nowhere.
	layerCounters(promText{}, promText{}, promText{}, out)
	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on empty expositions", name, v)
		}
	}
}
