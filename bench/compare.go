package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// cmpRow is one (metric, workload) pair of a comparison.
type cmpRow struct {
	Metric, Workload string
	A, B             float64 // medians over each set's runs
	SpreadA, SpreadB float64 // interquartile range as a share of the median
	NA, NB           int     // runs behind each median
	Ratio            float64 // B / A; the base is always A
	Bound            float64
	Verdict          string
}

// loadSet reads a result-set file and groups its untraced runs' values
// by workload and metric.
func loadSet(path string) (map[string]map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set []result
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string][]float64)
	for _, r := range set {
		if r.Trace {
			continue // per-layer figures have no bound
		}
		if !r.Comparable {
			return nil, fmt.Errorf("%s: holds a -quick result (comparable=false); its numbers may not be quoted", path)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, mv := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
		}
	}
	return out, nil
}

// compareRow judges one pair. A metric is worse when B's median is worse
// than A's by more than the bound; ok_ratio may not drop at all. When
// either set's own spread is wider than the bound the difference cannot
// be told from noise, and the row is unresolved rather than ok.
func compareRow(sm specMetric, workload string, a, b []float64) cmpRow {
	row := cmpRow{
		Metric: sm.Name, Workload: workload,
		A: median(a), B: median(b), NA: len(a), NB: len(b),
		SpreadA: iqrShare(a), SpreadB: iqrShare(b),
	}
	if sm.Bound != nil {
		row.Bound = *sm.Bound
	}
	if row.A != 0 {
		row.Ratio = row.B / row.A
	}
	bound := row.Bound
	if sm.Name == "ok_ratio" {
		bound = 0
	}
	worse := row.B > row.A*(1+bound)
	if sm.Better == "higher" {
		worse = row.B < row.A*(1-bound)
	}
	switch {
	case worse:
		row.Verdict = verdictWorse
	case row.SpreadA > row.Bound || row.SpreadB > row.Bound:
		row.Verdict = verdictUnresolved
	default:
		row.Verdict = verdictOK
	}
	return row
}

// compareSets prints one row per (metric, workload) present in both sets
// and returns the process exit code: 1 when any row is worse.
func compareSets(pathA, pathB string, w io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return compareFailed(err)
	}
	a, err := loadSet(pathA)
	if err != nil {
		return compareFailed(err)
	}
	b, err := loadSet(pathB)
	if err != nil {
		return compareFailed(err)
	}
	return printRows(w, pathA, pathB, compareAll(spec, a, b))
}

func compareFailed(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareAll(spec *benchSpec, a, b map[string]map[string][]float64) []cmpRow {
	var rows []cmpRow
	for _, wl := range spec.Workloads {
		for _, sm := range spec.EndToEnd {
			va, vb := a[wl.Name][sm.Name], b[wl.Name][sm.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows = append(rows, compareRow(sm, wl.Name, va, vb))
		}
	}
	return rows
}

func printRows(w io.Writer, pathA, pathB string, rows []cmpRow) int {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tworkload\tA=%s\tB=%s\tB/A\tbound\tspread A\tspread B\tverdict\n", pathA, pathB)
	code := 0
	counts := map[string]int{}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4f (n=%d)\t%.4f (n=%d)\t%.4f of A\t%.3f\t%.3f\t%.3f\t%s\n",
			r.Metric, r.Workload, r.A, r.NA, r.B, r.NB, r.Ratio, r.Bound, r.SpreadA, r.SpreadB, r.Verdict)
		counts[r.Verdict]++
		if r.Verdict == verdictWorse {
			code = 1
		}
	}
	tw.Flush() //nolint:errcheck // stdout
	fmt.Fprintf(w, "%d ok, %d unresolved (spread wider than bound), %d worse\n",
		counts[verdictOK], counts[verdictUnresolved], counts[verdictWorse])
	if len(rows) == 0 {
		fmt.Fprintln(w, "no (metric, workload) pair is present in both sets")
		return 2
	}
	return code
}
