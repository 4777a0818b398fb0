package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promText is one /metrics scrape: sample name (with labels, exactly as
// exposed) to value.
type promText map[string]float64

// scrape reads a daemon's /metrics exposition.
func scrape(url string) (promText, error) {
	resp, err := probeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm parses the text exposition: one "name{labels} value" sample
// per line.
func parseProm(r io.Reader) (promText, error) {
	out := make(promText)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every sample whose name starts with prefix (all label sets of
// one metric, or all services of one per-service metric).
func (p promText) sum(prefix string) float64 {
	var s float64
	for k, v := range p {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounters derives the scrape-based per-layer figures from the
// three tiers' expositions. The same names come out of the traced run's
// in-process registries, so the two runs can be read side by side.
func layerCounters(leader, follower, gw promText, out map[string]float64) {
	hits, misses := gw.sum("gw_cache_hits_total"), gw.sum("gw_cache_misses_total")
	out["core.edgecache_hit_ratio"] = ratio(hits, hits+misses+gw.sum("gw_cache_bypassed_total"))
	validates := gw.sum(`gw_requests_total{endpoint="validate"`)
	out["gateway.shed_ratio"] = ratio(gw.sum("gw_admission_dropped_total"), gw.sum("gw_requests_total"))
	batches, batched := gw.sum("core_validate_batches_total"), gw.sum("core_batched_validations_total")
	callbacks := gw.sum("core_callback_validations_total")
	out["gateway.upstream_calls_per_validate"] = ratio(callbacks-batched+batches, validates)
	out["core.batch_mean_size"] = ratio(batched, batches)
	out["seq.batch_mean_size"] = ratio(leader.sum("seq_batch_size_sum"), leader.sum("seq_batch_size_count"))
	out["durable.bytes_per_record"] = ratio(leader.sum("durable_append_bytes_total"), leader.sum("durable_append_records_total"))
	out["event.feed_gaps"] = leader.sum("event_feed_gaps_total")
	out["replica.records_applied"] = follower.sum("repl_records_applied_total")
}

// scrapeProcs scrapes the three processes once, at the end of the
// measured phases, and records the per-layer counters beside the
// end-to-end result.
func scrapeProcs(pt *procTopology, gatewayURL string, m *measured) error {
	leader, err := scrape("http://" + pt.leaderObs + "/metrics")
	if err != nil {
		return err
	}
	follower, err := scrape("http://" + pt.followObs + "/metrics")
	if err != nil {
		return err
	}
	gw, err := scrape(gatewayURL + "/metrics")
	if err != nil {
		return err
	}
	layerCounters(leader, follower, gw, m.Extra)
	return nil
}
