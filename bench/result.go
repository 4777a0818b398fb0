package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// benchSpec is BENCHMARK.json: the contract every run is reported in.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specNamed  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark contract: %w (run from the repository root)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// gated returns the metric list a run in the given mode must report.
func (s *benchSpec) gated(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// stamp records where and how a result was produced; two results are
// only comparable when their stamps agree on everything but the commit.
type stamp struct {
	Commit      string             `json:"commit"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Kernel      string             `json:"kernel"`
	StateFS     string             `json:"state_fs"`
	OpenRates   map[string]float64 `json:"open_rates_per_s"`
	SessionRate float64            `json:"session_rate_per_s"`
	Scale       scale              `json:"scale"`
}

func newStamp(stateDir string, sc scale) stamp {
	st := stamp{
		Commit:      "unknown",
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Kernel:      "unknown",
		StateFS:     fsType(stateDir),
		OpenRates:   openRate,
		SessionRate: sessionRate,
		Scale:       sc,
	}
	// The driver's checkout is not a git repository; the commit is then
	// simply not known.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}

// fsType names the filesystem holding dir (the journal's fsync is that
// filesystem's, not a device's).
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	switch uint32(s.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(s.Type))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run as written to a result-set file.
type result struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	Comparable bool   `json:"comparable"` // false for -quick

	Correct      bool     `json:"correct"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	HardFailures []string `json:"hard_failures,omitempty"`
	FirstError   string   `json:"first_error,omitempty"`
	Missing      []string `json:"missing_metrics,omitempty"`

	Metrics map[string]metricValue `json:"metrics"` // the gated set of this mode
	Counts  map[string]int         `json:"sample_counts"`
	Extra   map[string]float64     `json:"extra,omitempty"` // reported, never gated
	Stamp   stamp                  `json:"stamp"`
}

func newResult(cfg runConfig, spec *benchSpec, m *measured, chk *checker, stateDir string) result {
	r := result{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Seconds: cfg.Seconds,
		Comparable: !cfg.Quick,
		Attempted:  chk.attempted.Load(), Failed: chk.failed.Load(),
		HardFailures: chk.hardFailures(),
		Metrics:      make(map[string]metricValue),
		Counts:       m.Counts,
		Extra:        m.Extra,
		Stamp:        newStamp(stateDir, cfg.Scale),
	}
	if chk.firstEr != nil {
		r.FirstError = chk.firstEr.Error()
	}
	for _, sm := range spec.gated(cfg.Trace) {
		v, ok := m.Metrics[sm.Name]
		if !ok {
			r.Missing = append(r.Missing, sm.Name)
			continue
		}
		r.Metrics[sm.Name] = metricValue{Value: v, Unit: sm.Unit}
	}
	// Measured figures the contract does not list stay visible as extras.
	for name, v := range m.Metrics {
		if _, ok := r.Metrics[name]; !ok {
			r.Extra[name] = v
		}
	}
	r.Correct = r.Failed == 0 && len(r.HardFailures) == 0 && len(r.Missing) == 0 && r.Attempted > 0
	return r
}

// driverLine is the one JSON object the driver reads off the last line.
func (r result) driverLine() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

// report prints every metric by name with its unit and sample count.
func (r result) report(w io.Writer, spec *benchSpec) {
	mode := "untraced, multi-process"
	if r.Trace {
		mode = "traced, in-process"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %ds measured  comparable=%v\n", r.Workload, r.Seed, mode, r.Seconds, r.Comparable)
	for _, sm := range spec.gated(r.Trace) {
		mv, ok := r.Metrics[sm.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s MISSING\n", sm.Name)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", sm.Name, mv.Value, mv.Unit, r.Counts[sm.Name])
	}
	for _, name := range sortedKeys(r.Extra) {
		fmt.Fprintf(w, "  %-34s %14.4f        (not gated)\n", name, r.Extra[name])
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s\n", r.FirstError)
	}
	for _, hf := range r.HardFailures {
		fmt.Fprintf(w, "  HARD FAILURE: %s\n", hf)
	}
}

// writeResult keeps the latest result of each (workload, mode) under
// bench/out, stamp included, whether or not -out collects a set.
func writeResult(r result) error {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outRoot, "result-"+r.Workload+"-"+mode+".json"), b, 0o644)
}

// appendResult adds r to the JSON array in path, creating the file.
func appendResult(path string, r result) error {
	var set []result
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &set); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	set = append(set, r)
	b, err = json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// sortedKeys returns m's keys in order, for stable reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
