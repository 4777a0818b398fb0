package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func around(centre, spread float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = centre * (1 + spread*(float64(i)/float64(n-1)-0.5))
	}
	return out
}

func TestCompareRowVerdicts(t *testing.T) {
	lower := specMetric{Name: "validate_p50_us", Unit: "us", Better: "lower", Bound: f64(0.10)}
	higher := specMetric{Name: "validate_rps", Unit: "1/s", Better: "higher", Bound: f64(0.10)}
	okRatio := specMetric{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: f64(0.001)}
	for _, tc := range []struct {
		name string
		sm   specMetric
		a, b []float64
		want string
	}{
		{"same", lower, around(200, 0.02, 10), around(200, 0.02, 10), verdictOK},
		{"within bound", lower, around(200, 0.02, 10), around(215, 0.02, 10), verdictOK},
		{"slower by more than the bound", lower, around(200, 0.02, 10), around(230, 0.02, 10), verdictWorse},
		{"faster is never worse", lower, around(200, 0.02, 10), around(100, 0.02, 10), verdictOK},
		{"throughput drop", higher, around(10000, 0.02, 10), around(8500, 0.02, 10), verdictWorse},
		{"throughput gain", higher, around(10000, 0.02, 10), around(12000, 0.02, 10), verdictOK},
		{"spread wider than the bound", lower, around(200, 0.6, 10), around(205, 0.02, 10), verdictUnresolved},
		{"ok_ratio may not drop at all", okRatio, []float64{1, 1, 1}, []float64{0.9999, 0.9999, 0.9999}, verdictWorse},
		{"ok_ratio held", okRatio, []float64{1, 1, 1}, []float64{1, 1, 1}, verdictOK},
	} {
		row := compareRow(tc.sm, "edge_hot", tc.a, tc.b)
		if row.Verdict != tc.want {
			t.Errorf("%s: verdict %s, want %s (A=%.2f B=%.2f ratio %.3f spreads %.3f/%.3f)",
				tc.name, row.Verdict, tc.want, row.A, row.B, row.Ratio, row.SpreadA, row.SpreadB)
		}
		if row.NA != len(tc.a) || row.NB != len(tc.b) {
			t.Errorf("%s: run counts %d/%d", tc.name, row.NA, row.NB)
		}
	}
}

func writeSet(t *testing.T, path string, p50 float64, comparable bool) {
	t.Helper()
	var set []result
	for seed, v := range around(p50, 0.02, 10) {
		set = append(set, result{
			Workload: wlEdgeHot, Seed: uint64(seed), Comparable: comparable, Correct: true,
			Metrics: map[string]metricValue{
				"validate_p50_us": {Value: v, Unit: "us"},
				"ok_ratio":        {Value: 1, Unit: "ratio"},
			},
		})
	}
	// A traced run in the same file is ignored: per-layer figures have no bound.
	set = append(set, result{Workload: wlEdgeHot, Trace: true, Comparable: comparable,
		Metrics: map[string]metricValue{"validate_p50_us": {Value: 1e9, Unit: "us"}}})
	b, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The tool reads BENCHMARK.json from the working directory, prints one
// row per (metric, workload) with the ratio's base, and exits non-zero
// on a regression.
func TestCompareSetsExitCodeAndRows(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec{
		Workloads: []specNamed{{Name: wlEdgeHot}},
		EndToEnd: []specMetric{
			{Name: "validate_p50_us", Unit: "us", Better: "lower", Bound: f64(0.10)},
			{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: f64(0.001)},
		},
	}
	b, _ := json.Marshal(spec)
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	wd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd) //nolint:errcheck // test teardown

	writeSet(t, "a.json", 200, true)
	writeSet(t, "same.json", 204, true)
	writeSet(t, "slow.json", 260, true)
	writeSet(t, "quick.json", 200, false)

	var out bytes.Buffer
	if code := compareSets("a.json", "same.json", &out); code != 0 {
		t.Errorf("A/A comparison exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{"validate_p50_us", "edge_hot", "of A", "ok", "(n=10)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := compareSets("a.json", "slow.json", &out); code != 1 {
		t.Errorf("regression exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("regression not reported:\n%s", out.String())
	}
	if code := compareSets("a.json", "quick.json", &out); code != 2 {
		t.Errorf("a -quick result set must be refused, exit %d", code)
	}
	if code := compareSets("a.json", "missing.json", &out); code != 2 {
		t.Errorf("missing file: exit %d", code)
	}
}
